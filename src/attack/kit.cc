#include "src/attack/kit.h"

#include "src/attack/side_channel.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/uarch/memory.h"
#include "src/util/check.h"

namespace specbench {

namespace {

constexpr uint64_t kSsbSlot = 0x51000000;  // the SSB victim's store/load slot

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

const MemoryMap& MdsSampleMap() {
  class Map : public MemoryMap {
   public:
    Translation Translate(uint64_t vaddr, uint64_t, Mode) const override {
      Translation t;
      if (vaddr >= kMdsSampleBase && vaddr < kMdsSampleBase + kPageBytes) {
        return t;
      }
      t.mapped = true;
      t.present = true;
      t.user_accessible = true;
      t.paddr = vaddr;
      t.valid = true;
      return t;
    }
  };
  static const Map map;
  return map;
}

int32_t FirstCondBranchAtOrAfter(const Program& p, const std::string& symbol) {
  for (int32_t i = p.SymbolIndex(symbol); i < p.size(); i++) {
    if (IsConditionalBranch(p.at(i).op)) {
      return i;
    }
  }
  return -1;
}

AttackResult ReadAttackResult(Machine& m, uint64_t secret) {
  AttackResult result;
  result.expected = secret;
  result.recovered = AttackProbeChannel().Recover(m);
  result.leaked = result.recovered == static_cast<int>(secret);
  return result;
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
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&victim);
  for (uint64_t i = 0; i < kArrayLen; i++) {
    m.PokeData(kArrayBase + 8 * i, i % kCandidates);
  }
  m.PokeData(kGuardAddr, kArrayLen);
  m.PokeData(kSecretSlot, secret);
  const uint64_t entry = victim.SymbolVaddr("entry");
  for (int i = 0; i < 6; i++) {
    m.SetReg(0, static_cast<uint64_t>(i) % kArrayLen);
    m.Run(entry);
  }
  AttackProbeChannel().Flush(m);
  m.caches().Clflush(kGuardAddr);
  m.SetReg(0, (kSecretSlot - kArrayBase) / 8);  // out of bounds: the secret
  m.Run(entry);
  return ReadAttackResult(m, secret);
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
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&victim);
  m.PokeData(kSecretSlot, secret);
  m.btb().Train(victim.SymbolVaddr("entry"), victim.SymbolVaddr("gadget"), Mode::kUser,
                m.caller_context());
  // The victim is mid-function when a context switch destroyed its RSB: the
  // stack holds the true return address, in a flushed line.
  m.PokeData(kStackTop - 8, victim.SymbolVaddr("after"));
  m.SetReg(kRegSp, kStackTop - 8);
  m.caches().Clflush(kStackTop - 8);
  if (rsb_stuffing) {
    m.rsb().Stuff(0);
  } else {
    m.rsb().Clear();
  }
  AttackProbeChannel().Flush(m);
  m.Run(victim.SymbolVaddr("entry"));
  return ReadAttackResult(m, secret);
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
  SPECBENCH_CHECK(secret < kCandidates);
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.SetSsbd(ssbd);
  m.LoadProgram(&victim);
  m.PokeData(kSsbSlot, secret);  // the "old" value the bypass exposes
  m.PokeData(kGuardAddr, 0);
  const int32_t branch = FirstCondBranchAtOrAfter(victim, "entry");
  SPECBENCH_CHECK(branch >= 0);
  m.cond_predictor().Train(victim.VaddrOf(branch), true);
  m.cond_predictor().Train(victim.VaddrOf(branch), true);
  AttackProbeChannel().Flush(m);
  m.Run(victim.SymbolVaddr("entry"));
  return ReadAttackResult(m, secret);
}

}  // namespace specbench
