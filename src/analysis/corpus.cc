#include "src/analysis/corpus.h"

#include "src/attack/side_channel.h"
#include "src/isa/isa.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/uarch/memory.h"
#include "src/util/check.h"

namespace specbench {

namespace {

// Shared layout for the corpus programs (mirrors the attack suite).
constexpr uint64_t kProbeBase = 0x40000000;   // flush+reload probe array
constexpr uint64_t kCandidates = 16;          // 4-bit planted secrets
constexpr uint64_t kLenAddr = 0x41000000;     // bounds / branch guard slot
constexpr uint64_t kArrayBase = 0x42000000;   // V1 victim array
constexpr uint64_t kArrayLen = 16;
constexpr uint64_t kSecretSlot = 0x43000000;  // planted secret
constexpr uint64_t kPtrSlot = 0x44000000;     // indirect-branch function pointer
constexpr uint64_t kSsbSlot = 0x45000000;     // stale-value slot for the SSB gadget
constexpr uint64_t kStackTop = 0x48000000;
constexpr uint64_t kUnmappedBase = 0x50000000;  // MDS sampling window
constexpr uint64_t kSecret = 11;

// r(dst) = probe[r(value_reg) * 4096] — the cache-encoding load.
void EmitEncode(ProgramBuilder& b, uint8_t value_reg, uint8_t scratch, uint8_t dst) {
  b.AluImm(AluOp::kShl, scratch, value_reg, 12);
  b.MovImm(dst, static_cast<int64_t>(kProbeBase));
  b.Load(dst, MemRef{.base = dst, .index = scratch, .scale = 1});
}

// First conditional branch at or after `symbol` (robust against rewriting,
// which shifts instruction indices but preserves symbols).
int32_t FirstCondBranchAtOrAfter(const Program& p, const std::string& symbol) {
  for (int32_t i = p.SymbolIndex(symbol); i < p.size(); i++) {
    if (IsConditionalBranch(p.at(i).op)) {
      return i;
    }
  }
  return -1;
}

// The flush+reload receiver, built once per process (its reload programs
// are shared read-only by every thread).
const CacheTimingChannel& ProbeChannel() {
  static const CacheTimingChannel channel(kProbeBase, kCandidates);
  return channel;
}

bool RecoveredSecret(Machine& m) {
  return ProbeChannel().Recover(m) == static_cast<int>(kSecret);
}

void FlushProbe(Machine& m) { ProbeChannel().Flush(m); }

// Address space with an unmapped sampling window (for the MDS replay).
class UnmappedWindowMap : public MemoryMap {
 public:
  Translation Translate(uint64_t vaddr, uint64_t, Mode) const override {
    Translation t;
    if (vaddr >= kUnmappedBase && vaddr < kUnmappedBase + kPageBytes) {
      return t;  // faulting load: the fill-buffer sampling primitive
    }
    t.mapped = true;
    t.present = true;
    t.user_accessible = true;
    t.paddr = vaddr;
    t.valid = true;
    return t;
  }
};

// --- Spectre V1 family ----------------------------------------------------

enum class V1Variant { kNaked, kMasked, kLfenced };

Program BuildV1Program(V1Variant variant) {
  ProgramBuilder b;
  Label in_bounds = b.NewLabel();
  Label done = b.NewLabel();
  // if (r0 < len) { x = array[r0]; probe[x * 4096]; }
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kLenAddr));
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

bool ReplayV1(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&p);
  for (uint64_t i = 0; i < kArrayLen; i++) {
    m.PokeData(kArrayBase + 8 * i, i % kCandidates);
  }
  m.PokeData(kLenAddr, kArrayLen);
  m.PokeData(kSecretSlot, kSecret);
  // Train the bounds check with in-bounds runs, then flush the length so
  // the out-of-bounds run's branch resolves slowly.
  for (int i = 0; i < 6; i++) {
    m.SetReg(0, static_cast<uint64_t>(i) % kArrayLen);
    m.Run(p.SymbolVaddr("entry"));
  }
  FlushProbe(m);
  m.caches().Clflush(kLenAddr);
  m.SetReg(0, (kSecretSlot - kArrayBase) / 8);
  m.Run(p.SymbolVaddr("entry"));
  return RecoveredSecret(m);
}

// --- Indirect branches ----------------------------------------------------

Program BuildIndirectProgram(bool lfence_before_call) {
  ProgramBuilder b;
  b.BindSymbol("entry");
  b.MovImm(2, static_cast<int64_t>(kPtrSlot));
  b.Clflush(MemRef{.base = 2});  // pointer resolves slowly: wide window
  b.Load(11, MemRef{.base = 2});
  if (lfence_before_call) {
    b.Lfence();
  }
  b.IndirectCall(11);
  b.Halt();
  b.BindSymbol("gadget");
  b.MovImm(5, static_cast<int64_t>(kSecretSlot));
  b.Load(6, MemRef{.base = 5});
  EmitEncode(b, 6, 7, 8);
  b.Ret();
  b.BindSymbol("benign");
  b.Ret();
  return b.Build();
}

bool ReplayIndirect(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&p);
  m.SetReg(kRegSp, kStackTop);
  m.PokeData(kSecretSlot, kSecret);
  // Train the BTB by calling through the pointer aimed at the gadget (the
  // architectural gadget runs also encode; the channel is flushed after).
  m.PokeData(kPtrSlot, p.SymbolVaddr("gadget"));
  for (int i = 0; i < 4; i++) {
    m.Run(p.SymbolVaddr("entry"));
  }
  m.PokeData(kPtrSlot, p.SymbolVaddr("benign"));
  FlushProbe(m);
  m.Run(p.SymbolVaddr("entry"));
  return RecoveredSecret(m);
}

// --- RSB balance ----------------------------------------------------------

Program BuildRetUnderflowProgram() {
  ProgramBuilder b;
  b.BindSymbol("entry");  // a bare ret: its RSB entry was lost (SpectreRSB)
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

bool ReplayRetUnderflow(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&p);
  m.PokeData(kSecretSlot, kSecret);
  // Attacker trained the BTB at the ret's pc; the true return address sits
  // in (flushed) stack memory so the ret resolves slowly.
  m.btb().Train(p.SymbolVaddr("entry"), p.SymbolVaddr("gadget"), Mode::kUser,
                m.caller_context());
  m.PokeData(kStackTop - 8, p.SymbolVaddr("after"));
  m.SetReg(kRegSp, kStackTop - 8);
  m.caches().Clflush(kStackTop - 8);
  m.rsb().Clear();
  FlushProbe(m);
  m.Run(p.SymbolVaddr("entry"));
  return RecoveredSecret(m);
}

Program BuildDeepCallChainProgram(uint32_t rsb_depth) {
  const uint32_t depth = rsb_depth + 2;
  ProgramBuilder b;
  std::vector<Label> fn(depth);
  for (uint32_t i = 0; i < depth; i++) {
    fn[i] = b.NewLabel();
  }
  b.BindSymbol("entry");
  b.Call(fn[0]);
  b.Halt();
  for (uint32_t i = 0; i < depth; i++) {
    b.Bind(fn[i]);
    if (i + 1 < depth) {
      b.Call(fn[i + 1]);
    }
    b.Ret();
  }
  return b.Build();
}

bool ReplayDeepCallChain(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&p);
  m.SetReg(kRegSp, kStackTop);
  m.Run(p.SymbolVaddr("entry"));
  // Two pushes beyond the RSB depth dropped the two oldest entries; the
  // outermost returns underflow — the microarchitectural effect the
  // imbalance detector predicts.
  return m.PmcValue(Pmc::kRsbUnderflows) > 0;
}

// --- Speculative Store Bypass --------------------------------------------

Program BuildSsbProgram(bool mfence_after_store) {
  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kSsbSlot));
  b.MovImm(3, static_cast<int64_t>(kLenAddr));
  b.Load(9, MemRef{.base = 1});  // warm
  b.Load(9, MemRef{.base = 3});
  b.Lfence();
  b.Clflush(MemRef{.base = 3});
  b.Load(4, MemRef{.base = 3});   // slow guard
  b.MovImm(2, 0);
  b.Store(MemRef{.base = 1}, 2);  // overwrite; unresolved at the branch
  if (mfence_after_store) {
    b.Mfence();  // drains the store buffer: nothing left to bypass
  }
  b.BranchNz(4, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.Load(5, MemRef{.base = 1});  // may bypass the store: reads stale secret
  EmitEncode(b, 5, 6, 7);
  b.Bind(done);
  b.Halt();
  return b.Build();
}

bool ReplaySsb(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&p);
  m.PokeData(kSsbSlot, kSecret);  // the "old" value the bypass exposes
  m.PokeData(kLenAddr, 0);
  const int32_t branch = FirstCondBranchAtOrAfter(p, "entry");
  SPECBENCH_CHECK(branch >= 0);
  m.cond_predictor().Train(p.VaddrOf(branch), true);
  m.cond_predictor().Train(p.VaddrOf(branch), true);
  FlushProbe(m);
  m.Run(p.SymbolVaddr("entry"));
  return RecoveredSecret(m);
}

// --- Privilege transitions ------------------------------------------------

Program BuildSysretProgram(bool protected_exit) {
  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  // Kernel path: touches a secret (filling a line-fill buffer), returns.
  b.BindSymbol("kernel_entry");
  b.Swapgs();
  b.MovImm(12, static_cast<int64_t>(kSecretSlot));
  b.Load(13, MemRef{.base = 12});
  b.Lfence();
  if (protected_exit) {
    b.MovImm(10, 0);
    b.MovCr3(10);  // KPTI: back to the user page tables
    b.Verw();      // MDS: clear CPU buffers
  }
  b.Sysret();
  // User sampler: division-delayed mispredicted branch; the wrong path
  // samples the fill buffers through a faulting load (RIDL-style).
  b.BindSymbol("user_sampler");
  b.MovImm(1, 7);
  b.DivImm(2, 1, 9);
  b.BranchNz(2, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.MovImm(3, static_cast<int64_t>(kUnmappedBase));
  b.Load(4, MemRef{.base = 3});
  EmitEncode(b, 4, 5, 6);
  b.Bind(done);
  b.Halt();
  return b.Build();
}

bool ReplaySysret(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  static UnmappedWindowMap map;
  m.SetMemoryMap(&map);
  m.LoadProgram(&p);
  m.PokeData(kSecretSlot, kSecret);
  m.caches().Clflush(kSecretSlot);  // so the kernel load refills the LFB
  m.SetMode(Mode::kKernel);
  m.SetSavedUserRip(p.SymbolVaddr("user_sampler"));
  const int32_t branch = FirstCondBranchAtOrAfter(p, "user_sampler");
  SPECBENCH_CHECK(branch >= 0);
  m.cond_predictor().Train(p.VaddrOf(branch), true);
  m.cond_predictor().Train(p.VaddrOf(branch), true);
  FlushProbe(m);
  m.Run(p.SymbolVaddr("kernel_entry"));
  return RecoveredSecret(m);
}

// --- Benign control -------------------------------------------------------

Program BuildBenignLoopProgram() {
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.BindSymbol("entry");
  b.MovImm(1, static_cast<int64_t>(kArrayBase));
  b.MovImm(2, 0);
  b.MovImm(3, static_cast<int64_t>(kArrayLen));
  b.MovImm(5, 0);
  b.Bind(loop);
  b.Load(4, MemRef{.base = 1, .index = 2, .scale = 8});
  b.Alu(AluOp::kAdd, 5, 5, 4);
  b.AluImm(AluOp::kAdd, 2, 2, 1);
  b.Alu(AluOp::kCmpLt, 6, 2, 3);
  b.BranchNz(6, loop);
  b.Halt();
  return b.Build();
}

bool ReplayBenignLoop(const CpuModel& cpu, const Program& p) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.LoadProgram(&p);
  for (uint64_t i = 0; i < kArrayLen; i++) {
    m.PokeData(kArrayBase + 8 * i, i);
  }
  FlushProbe(m);
  m.Run(p.SymbolVaddr("entry"));
  return RecoveredSecret(m);
}

}  // namespace

std::vector<CorpusEntry> BuildGadgetCorpus(uint32_t rsb_depth) {
  std::vector<CorpusEntry> corpus;
  corpus.push_back({"v1-classic",
                    "bounds-checked load feeding a dependent load address",
                    BuildV1Program(V1Variant::kNaked),
                    {FindingKind::kSpectreV1Gadget},
                    ReplayV1});
  corpus.push_back({"v1-masked",
                    "same gadget with cmov index masking (JIT hardening)",
                    BuildV1Program(V1Variant::kMasked),
                    {},
                    ReplayV1});
  corpus.push_back({"v1-lfenced",
                    "same gadget with an lfence after the bounds check",
                    BuildV1Program(V1Variant::kLfenced),
                    {},
                    ReplayV1});
  corpus.push_back({"indirect-naked",
                    "indirect call through a flushed function pointer",
                    BuildIndirectProgram(false),
                    {FindingKind::kUnprotectedIndirectBranch},
                    ReplayIndirect});
  corpus.push_back({"indirect-lfenced",
                    "the same call with the pointer load fenced",
                    BuildIndirectProgram(true),
                    {},
                    ReplayIndirect});
  corpus.push_back({"ret-underflow",
                    "bare ret whose RSB entry was lost (SpectreRSB)",
                    BuildRetUnderflowProgram(),
                    {FindingKind::kRsbImbalance},
                    ReplayRetUnderflow});
  corpus.push_back({"deep-call-chain",
                    "call chain two deeper than the RSB",
                    BuildDeepCallChainProgram(rsb_depth),
                    {FindingKind::kRsbImbalance},
                    ReplayDeepCallChain});
  corpus.push_back({"ssb-gadget",
                    "speculative load bypassing an unresolved store",
                    BuildSsbProgram(false),
                    {FindingKind::kSsbGadget},
                    ReplaySsb});
  corpus.push_back({"ssb-mfenced",
                    "the same pair with the store buffer drained",
                    BuildSsbProgram(true),
                    {},
                    ReplaySsb});
  corpus.push_back({"sysret-unprotected",
                    "kernel exit with neither verw nor a cr3 switch",
                    BuildSysretProgram(false),
                    {FindingKind::kMissingBufferClear, FindingKind::kMissingKptiCr3Switch},
                    ReplaySysret});
  corpus.push_back({"sysret-protected",
                    "kernel exit running verw and the KPTI cr3 switch",
                    BuildSysretProgram(true),
                    {},
                    ReplaySysret});
  corpus.push_back({"benign-loop",
                    "constant-bounds array sweep (no gadget)",
                    BuildBenignLoopProgram(),
                    {},
                    ReplayBenignLoop});
  return corpus;
}

}  // namespace specbench
