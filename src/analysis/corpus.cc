#include "src/analysis/corpus.h"

#include "src/attack/kit.h"
#include "src/isa/isa.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"

namespace specbench {

namespace {

// The planted secret; the layout and the V1, SpectreRSB and SSB scenarios
// are the attack kit's (src/attack/kit.h).
constexpr uint64_t kSecret = 11;

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
  EmitSecretGadget(b);
  return b.Build();
}

bool ReplayIndirect(const CpuModel& cpu, const Program& p) {
  const uint64_t entry = p.SymbolVaddr("entry");
  return ProbeTrial(
             cpu, kSecret,
             [&](Machine& m) {
               m.LoadProgram(&p);
               m.SetReg(kRegSp, kStackTop);
               m.PokeData(kSecretSlot, kSecret);
               // Train the BTB by calling through the pointer aimed at the
               // gadget (the architectural gadget runs also encode; the
               // channel is flushed after).
               m.PokeData(kPtrSlot, p.SymbolVaddr("gadget"));
               for (int i = 0; i < 4; i++) {
                 m.Run(entry);
               }
               m.PokeData(kPtrSlot, p.SymbolVaddr("benign"));
             },
             [&](Machine& m) { m.Run(entry); })
      .leaked;
}

// --- RSB balance ----------------------------------------------------------

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
  b.MovImm(3, static_cast<int64_t>(kMdsSampleBase));
  b.Load(4, MemRef{.base = 3});
  EmitEncode(b, 4, 5, 6);
  b.Bind(done);
  b.Halt();
  return b.Build();
}

bool ReplaySysret(const CpuModel& cpu, const Program& p) {
  const int32_t branch = FirstCondBranchAtOrAfter(p, "user_sampler");
  SPECBENCH_CHECK(branch >= 0);
  return ProbeTrial(
             cpu, kSecret,
             [&](Machine& m) {
               m.SetMemoryMap(&AttackMap(SecretPage::kUser, AttackerPage::kUnmapped));
               m.LoadProgram(&p);
               m.PokeData(kSecretSlot, kSecret);
               m.caches().Clflush(kSecretSlot);  // so the kernel load refills the LFB
               m.SetMode(Mode::kKernel);
               m.SetSavedUserRip(p.SymbolVaddr("user_sampler"));
               TrainTaken(m, p.VaddrOf(branch));
             },
             [&](Machine& m) { m.Run(p.SymbolVaddr("kernel_entry")); })
      .leaked;
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
  return ProbeTrial(
             cpu, kSecret,
             [&](Machine& m) {
               m.LoadProgram(&p);
               for (uint64_t i = 0; i < kArrayLen; i++) {
                 m.PokeData(kArrayBase + 8 * i, i);
               }
             },
             [&](Machine& m) { m.Run(p.SymbolVaddr("entry")); })
      .leaked;
}

}  // namespace

std::vector<CorpusEntry> BuildGadgetCorpus(uint32_t rsb_depth) {
  const auto replay_v1 = [](const CpuModel& cpu, const Program& p) {
    return ReplaySpectreV1(cpu, p, kSecret).leaked;
  };
  const auto replay_ssb = [](const CpuModel& cpu, const Program& p) {
    return ReplaySsb(cpu, p, /*ssbd=*/false, kSecret).leaked;
  };
  std::vector<CorpusEntry> corpus;
  corpus.push_back({"v1-classic",
                    "bounds-checked load feeding a dependent load address",
                    BuildSpectreV1Victim(V1Variant::kNaked),
                    {FindingKind::kSpectreV1Gadget},
                    replay_v1});
  corpus.push_back({"v1-masked",
                    "same gadget with cmov index masking (JIT hardening)",
                    BuildSpectreV1Victim(V1Variant::kMasked),
                    {},
                    replay_v1});
  corpus.push_back({"v1-lfenced",
                    "same gadget with an lfence after the bounds check",
                    BuildSpectreV1Victim(V1Variant::kLfenced),
                    {},
                    replay_v1});
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
                    BuildSpectreRsbVictim(),
                    {FindingKind::kRsbImbalance},
                    [](const CpuModel& cpu, const Program& p) {
                      return ReplaySpectreRsb(cpu, p, /*rsb_stuffing=*/false, kSecret).leaked;
                    }});
  corpus.push_back({"deep-call-chain",
                    "call chain two deeper than the RSB",
                    BuildDeepCallChainProgram(rsb_depth),
                    {FindingKind::kRsbImbalance},
                    ReplayDeepCallChain});
  corpus.push_back({"ssb-gadget",
                    "speculative load bypassing an unresolved store",
                    BuildSsbVictim(false),
                    {FindingKind::kSsbGadget},
                    replay_ssb});
  corpus.push_back({"ssb-mfenced",
                    "the same pair with the store buffer drained",
                    BuildSsbVictim(true),
                    {},
                    replay_ssb});
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
