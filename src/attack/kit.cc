#include "src/attack/kit.h"

#include <vector>

#include "src/attack/side_channel.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/uarch/memory.h"
#include "src/util/check.h"

namespace specbench {

namespace {

constexpr uint64_t kSsbSlot = 0x51000000;  // the SSB victim's store/load slot

// The attack map answers page by page, and each translation's span is its
// page, so every page it treats specially must start on a page boundary.
static_assert(kMdsSampleBase % kPageBytes == 0, "kMdsSampleBase must be page-aligned");
static_assert(kStalePteBase % kPageBytes == 0, "kStalePteBase must be page-aligned");
static_assert(kSecretSlot % kPageBytes == 0, "kSecretSlot must be page-aligned");

bool InPage(uint64_t vaddr, uint64_t page) { return vaddr >= page && vaddr < page + kPageBytes; }

class AttackMemoryMap : public MemoryMap {
 public:
  AttackMemoryMap(SecretPage secret, AttackerPage attacker) : secret_(secret), attacker_(attacker) {}

  Translation Translate(uint64_t vaddr, uint64_t, Mode mode) const override {
    Translation t;
    if (attacker_ == AttackerPage::kUnmapped && InPage(vaddr, kMdsSampleBase)) {
      return t;
    }
    const bool secret_page = InPage(vaddr, kSecretSlot);
    if (secret_page && secret_ == SecretPage::kAbsent) {
      return t;
    }
    t.span_start = vaddr & ~(kPageBytes - 1);
    t.span_end = t.span_start + kPageBytes;
    if (attacker_ != AttackerPage::kUnmapped && InPage(vaddr, kStalePteBase)) {
      // Not present, so never valid; PTE inversion points the stale paddr
      // at unpopulated memory.
      t.mapped = true;
      t.paddr = (attacker_ == AttackerPage::kStaleToSecret ? kSecretSlot : 0xdead0000000ULL) +
                (vaddr - kStalePteBase);
      t.user_accessible = true;
      return t;
    }
    t.mapped = true;
    t.present = true;
    t.paddr = vaddr;
    t.user_accessible = !secret_page || secret_ == SecretPage::kUser;
    t.valid = AccessValid(t.present, t.user_accessible, mode);
    return t;
  }

 private:
  SecretPage secret_;
  AttackerPage attacker_;
};

}  // namespace

const CacheTimingChannel& AttackProbeChannel() {
  static const CacheTimingChannel channel(kProbeBase, kCandidates);
  return channel;
}

void EmitEncode(ProgramBuilder& b, uint8_t value_reg, uint8_t scratch, uint8_t dst) {
  b.AluImm(AluOp::kShl, scratch, value_reg, 12);
  b.MovImm(dst, static_cast<int64_t>(kProbeBase));
  b.Load(dst, MemRef{.base = dst, .index = scratch, .scale = 1});
}

void EmitSecretGadget(ProgramBuilder& b) {
  b.BindSymbol("gadget");
  b.MovImm(5, static_cast<int64_t>(kSecretSlot));
  b.Load(6, MemRef{.base = 5});
  EmitEncode(b, 6, 7, 8);
  b.Ret();
  b.BindSymbol("benign");
  b.Ret();
}

const MemoryMap& AttackMap(SecretPage secret, AttackerPage attacker) {
  // Every combination, built once; index = 3 * secret + attacker.
  static const std::vector<AttackMemoryMap> maps = [] {
    std::vector<AttackMemoryMap> all;
    for (int s = 0; s < 3; s++) {
      for (int a = 0; a < 3; a++) {
        all.emplace_back(static_cast<SecretPage>(s), static_cast<AttackerPage>(a));
      }
    }
    return all;
  }();
  return maps.at(3 * static_cast<size_t>(secret) + static_cast<size_t>(attacker));
}

void TrainTaken(Machine& m, uint64_t vaddr) {
  m.cond_predictor().Train(vaddr, true);
  m.cond_predictor().Train(vaddr, true);
}

int32_t FirstCondBranchAtOrAfter(const Program& p, const std::string& symbol) {
  for (int32_t i = p.SymbolIndex(symbol); i < p.size(); i++) {
    if (IsConditionalBranch(p.at(i).op)) {
      return i;
    }
  }
  return -1;
}

AttackResult ProbeTrial(const CpuModel& cpu, uint64_t secret,
                        const std::function<void(Machine&)>& setup,
                        const std::function<void(Machine&)>& trigger) {
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  setup(m);
  AttackProbeChannel().Flush(m);
  trigger(m);
  AttackResult result;
  result.expected = secret;
  result.recovered = AttackProbeChannel().Recover(m);
  result.leaked = result.recovered == static_cast<int>(secret);
  return result;
}

uint64_t RunSiblings(Machine& m, const Program& p, bool stibp) {
  Machine::CoResidentSpec victim;
  victim.program = &p;
  victim.entry_vaddr = p.SymbolVaddr("victim");
  victim.smt_thread_id = 0;
  victim.stibp = stibp;
  victim.initial_regs = {{kRegSp, kStackTop}};
  Machine::CoResidentSpec attacker;
  attacker.program = &p;
  attacker.entry_vaddr = p.SymbolVaddr("attacker");
  attacker.smt_thread_id = 1;
  attacker.stibp = stibp;
  attacker.initial_regs = {{kRegSp, kStackTop - 4096}};
  return m.RunCoResident(victim, attacker).thread[1].finish_cycles;
}

// --- Spectre V1 --------------------------------------------------------------

Program BuildSpectreV1Victim(V1Variant variant) {
  ProgramBuilder b;
  Label in_bounds = b.NewLabel();
  Label done = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kGuardAddr));  // guard doubles as length
  b.Load(2, MemRef{.base = 1});
  b.Alu(AluOp::kCmpLt, 3, 0, 2);
  b.BranchNz(3, in_bounds);
  b.Jmp(done);
  b.Bind(in_bounds);
  uint8_t idx = 0;
  if (variant == V1Variant::kLfenced) {
    b.Lfence();
  } else if (variant == V1Variant::kMasked) {
    b.Mov(4, 0);
    b.Alu(AluOp::kCmpGe, 5, 0, 2);
    b.MovImm(6, 0);
    b.Cmov(4, 6, 5);
    idx = 4;
  }
  b.MovImm(7, static_cast<int64_t>(kArrayBase));
  b.Load(8, MemRef{.base = 7, .index = idx, .scale = 8});
  EmitEncode(b, 8, 9, 11);
  b.Bind(done);
  b.Halt();
  return b.Build();
}

AttackResult ReplaySpectreV1(const CpuModel& cpu, const Program& victim, uint64_t secret) {
  const uint64_t entry = victim.SymbolVaddr("entry");
  return ProbeTrial(
      cpu, secret,
      [&](Machine& m) {
        m.LoadProgram(&victim);
        for (uint64_t i = 0; i < kArrayLen; i++) {
          m.PokeData(kArrayBase + 8 * i, i % kCandidates);
        }
        m.PokeData(kGuardAddr, kArrayLen);
        m.PokeData(kSecretSlot, secret);
        for (int i = 0; i < 6; i++) {
          m.SetReg(0, static_cast<uint64_t>(i) % kArrayLen);
          m.Run(entry);
        }
      },
      [&](Machine& m) {
        m.caches().Clflush(kGuardAddr);
        m.SetReg(0, (kSecretSlot - kArrayBase) / 8);  // out of bounds: the secret
        m.Run(entry);
      });
}

// --- SpectreRSB --------------------------------------------------------------

Program BuildSpectreRsbVictim() {
  ProgramBuilder b;
  b.BindSymbol("entry");
  b.Ret();
  b.BindSymbol("after");
  b.Halt();
  b.BindSymbol("gadget");
  b.MovImm(5, static_cast<int64_t>(kSecretSlot));
  b.Load(6, MemRef{.base = 5});
  EmitEncode(b, 6, 7, 8);
  b.Ret();
  return b.Build();
}

AttackResult ReplaySpectreRsb(const CpuModel& cpu, const Program& victim, bool rsb_stuffing,
                              uint64_t secret) {
  const uint64_t entry = victim.SymbolVaddr("entry");
  return ProbeTrial(
      cpu, secret,
      [&](Machine& m) {
        m.LoadProgram(&victim);
        m.PokeData(kSecretSlot, secret);
        m.btb().Train(entry, victim.SymbolVaddr("gadget"), Mode::kUser, m.caller_context());
        // The victim is mid-function when a context switch destroyed its
        // RSB: the stack holds the true return address, in a flushed line.
        m.PokeData(kStackTop - 8, victim.SymbolVaddr("after"));
        m.SetReg(kRegSp, kStackTop - 8);
        m.caches().Clflush(kStackTop - 8);
        if (rsb_stuffing) {
          m.rsb().Stuff(0);
        } else {
          m.rsb().Clear();
        }
      },
      [&](Machine& m) { m.Run(entry); });
}

// --- Speculative Store Bypass ------------------------------------------------

Program BuildSsbVictim(bool mfence_after_store) {
  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kSsbSlot));
  b.MovImm(3, static_cast<int64_t>(kGuardAddr));
  b.Load(9, MemRef{.base = 1});  // warm TLB and caches for slot and guard
  b.Load(9, MemRef{.base = 3});
  b.Lfence();
  b.Clflush(MemRef{.base = 3});
  b.Load(4, MemRef{.base = 3});   // slow guard
  b.MovImm(2, 0);                 // overwrite value (not the secret)
  b.Store(MemRef{.base = 1}, 2);  // still unresolved at the branch
  if (mfence_after_store) {
    b.Mfence();
  }
  b.BranchNz(4, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.Load(5, MemRef{.base = 1});  // may bypass the store: reads the secret
  EmitEncode(b, 5, 6, 7);
  b.Bind(done);
  b.Halt();
  return b.Build();
}

AttackResult ReplaySsb(const CpuModel& cpu, const Program& victim, bool ssbd, uint64_t secret) {
  const int32_t branch = FirstCondBranchAtOrAfter(victim, "entry");
  SPECBENCH_CHECK(branch >= 0);
  return ProbeTrial(
      cpu, secret,
      [&](Machine& m) {
        m.SetSsbd(ssbd);
        m.LoadProgram(&victim);
        m.PokeData(kSsbSlot, secret);  // the "old" value the bypass exposes
        m.PokeData(kGuardAddr, 0);
        TrainTaken(m, victim.VaddrOf(branch));
      },
      [&](Machine& m) { m.Run(victim.SymbolVaddr("entry")); });
}

}  // namespace specbench
