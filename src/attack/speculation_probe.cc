#include "src/attack/speculation_probe.h"

#include "src/isa/program.h"
#include "src/uarch/cycle_attribution.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"

namespace specbench {

namespace {

constexpr uint64_t kPtrSlot = 0x60000000;    // the indirect branch target ptr
constexpr uint64_t kFlagSlot = 0x60001000;   // selects the kernel-entry path
constexpr uint64_t kResultSlot = 0x60002000; // divider delta around the probe
constexpr uint64_t kNopSlot = 0x60003000;    // holds nop_target's vaddr
constexpr uint64_t kStackTop = 0x68000000;

constexpr int64_t kFlagVictim = 0;
constexpr int64_t kFlagTrain = 1;
constexpr int64_t kFlagNop = 2;
constexpr int64_t kFlagTrainAndVictim = 3;

// Emits "rdpmc; call do_branch; rdpmc; store the divider delta".
void EmitMeasuredBranch(ProgramBuilder& b, Label do_branch) {
  b.Rdpmc(12, Pmc::kArithDividerActive);
  b.Call(do_branch);
  b.Rdpmc(13, Pmc::kArithDividerActive);
  b.Alu(AluOp::kSub, 13, 13, 12);
  b.Store(MemRef{.disp = static_cast<int64_t>(kResultSlot)}, 13);
}

struct ProbeProgram {
  Program program;
};

// Decides the outcome from the cycle accountant: attached for the probe run,
// it accumulates divider-active cycles observed inside squashed speculative
// episodes, the real counter behind Figure 6. The architectural
// rdpmc delta the program stored at kResultSlot must agree — the two count
// the same transient divider activity through independent paths.
ProbeOutcome OutcomeFrom(Machine& m, const CycleAttribution& attribution) {
  const bool speculated = attribution.episode_divider_cycles() > 0;
  SPECBENCH_CHECK_MSG(speculated == (m.PeekData(kResultSlot) > 0),
                      "episode divider cycles disagree with the rdpmc delta");
  return speculated ? ProbeOutcome::kSpeculated : ProbeOutcome::kSafe;
}

// Builds the probe program once; all configurations share it. The indirect
// branch under test lives inside do_branch, so its pc is identical whether
// it executes in user or kernel mode — the shared-page setup of §6.1.
ProbeProgram BuildProbeProgram() {
  ProgramBuilder b;
  Label do_branch = b.NewLabel();
  Label k_train = b.NewLabel();
  Label k_nop = b.NewLabel();
  Label k_both = b.NewLabel();
  Label k_train_loop = b.NewLabel();
  Label k_both_loop = b.NewLabel();
  Label u_train_loop = b.NewLabel();

  // victim_target: the landing pad with the divider signature (Figure 6).
  b.BindSymbol("victim_target");
  b.MovImm(2, 12345);
  b.DivImm(3, 2, 6789);
  b.Ret();

  b.BindSymbol("nop_target");
  b.Ret();

  // do_branch: flush the pointer (so the branch resolves slowly), load it,
  // call through it.
  b.BindSymbol("do_branch");
  b.Bind(do_branch);
  b.MovImm(4, static_cast<int64_t>(kPtrSlot));
  b.Clflush(MemRef{.base = 4});
  b.Load(5, MemRef{.base = 4});
  b.IndirectCall(5);
  b.Ret();

  // Kernel entry: dispatch on the flag.
  b.BindSymbol("syscall_entry");
  b.Load(6, MemRef{.disp = static_cast<int64_t>(kFlagSlot)});
  b.AluImm(AluOp::kCmpEq, 7, 6, kFlagTrain);
  b.BranchNz(7, k_train);
  b.AluImm(AluOp::kCmpEq, 7, 6, kFlagNop);
  b.BranchNz(7, k_nop);
  b.AluImm(AluOp::kCmpEq, 7, 6, kFlagTrainAndVictim);
  b.BranchNz(7, k_both);
  // Victim in kernel mode.
  EmitMeasuredBranch(b, do_branch);
  b.Sysret();
  b.Bind(k_train);
  b.MovImm(8, 6);
  b.Bind(k_train_loop);
  b.Call(do_branch);
  b.AluImm(AluOp::kSub, 8, 8, 1);
  b.BranchNz(8, k_train_loop);
  b.Sysret();
  b.Bind(k_nop);
  b.Sysret();
  // Train and probe inside a single kernel entry (the "no system call"
  // kernel->kernel column): retarget the pointer in-kernel between them.
  b.Bind(k_both);
  b.MovImm(8, 6);
  b.Bind(k_both_loop);
  b.Call(do_branch);
  b.AluImm(AluOp::kSub, 8, 8, 1);
  b.BranchNz(8, k_both_loop);
  b.Load(9, MemRef{.disp = static_cast<int64_t>(kNopSlot)});
  b.Store(MemRef{.disp = static_cast<int64_t>(kPtrSlot)}, 9);
  EmitMeasuredBranch(b, do_branch);
  b.Sysret();

  // User-mode pieces.
  b.BindSymbol("user_train");
  b.MovImm(8, 6);
  b.Bind(u_train_loop);
  b.Call(do_branch);
  b.AluImm(AluOp::kSub, 8, 8, 1);
  b.BranchNz(8, u_train_loop);
  b.Halt();

  b.BindSymbol("user_victim");
  EmitMeasuredBranch(b, do_branch);
  b.Halt();

  b.BindSymbol("user_do_syscall");
  b.Syscall();
  b.Halt();

  ProbeProgram pp;
  pp.program = b.Build();
  return pp;
}

}  // namespace

const char* ProbeOutcomeName(ProbeOutcome outcome) {
  switch (outcome) {
    case ProbeOutcome::kSpeculated: return "speculated";
    case ProbeOutcome::kSafe: return "safe";
    case ProbeOutcome::kUnsupported: return "n/a";
  }
  return "?";
}

std::vector<ProbeCase> Table9Columns(bool ibrs) {
  // Paper order: with intervening syscall {user->kernel, user->user,
  // kernel->kernel}, then no-syscall {user->user, kernel->kernel}.
  return {
      {Mode::kUser, Mode::kKernel, true, ibrs},
      {Mode::kUser, Mode::kUser, true, ibrs},
      {Mode::kKernel, Mode::kKernel, true, ibrs},
      {Mode::kUser, Mode::kUser, false, ibrs},
      {Mode::kKernel, Mode::kKernel, false, ibrs},
  };
}

std::string ProbeCaseName(const ProbeCase& c) {
  std::string name = std::string(ModeName(c.train_mode)) + "->" + ModeName(c.victim_mode);
  name += c.intervening_syscall ? " (syscall)" : " (no syscall)";
  return name;
}

SpeculationProbe::SpeculationProbe(const CpuModel& cpu) : cpu_(cpu) {}

std::vector<ProbeOutcome> SpeculationProbe::RunTable9Row(bool ibrs) const {
  std::vector<ProbeOutcome> outcomes;
  for (const ProbeCase& c : Table9Columns(ibrs)) {
    outcomes.push_back(Run(c));
  }
  return outcomes;
}

ProbeOutcome SpeculationProbe::Run(const ProbeCase& probe_case) const {
  SPECBENCH_CHECK(probe_case.train_mode == Mode::kUser ||
                  probe_case.train_mode == Mode::kKernel);
  SPECBENCH_CHECK(probe_case.victim_mode == Mode::kUser ||
                  probe_case.victim_mode == Mode::kKernel);
  if (probe_case.ibrs && !cpu_.predictor.ibrs_supported) {
    return ProbeOutcome::kUnsupported;
  }

  MachineLease lease(cpu_);
  Machine& m = *lease;
  static const ProbeProgram pp = BuildProbeProgram();
  const Program& p = pp.program;
  m.LoadProgram(&p);
  m.SetSyscallEntry(p.SymbolVaddr("syscall_entry"));
  m.SetReg(kRegSp, kStackTop);
  m.SetIbrs(probe_case.ibrs);
  m.PokeData(kNopSlot, p.SymbolVaddr("nop_target"));
  m.PokeData(kResultSlot, 0);
  m.PokeData(kPtrSlot, p.SymbolVaddr("victim_target"));

  const bool kernel_to_kernel_fused = probe_case.train_mode == Mode::kKernel &&
                                      probe_case.victim_mode == Mode::kKernel &&
                                      !probe_case.intervening_syscall;
  if (kernel_to_kernel_fused) {
    // Train and probe inside one kernel entry. The accountant covers training
    // too, but training calls the same site the probe uses, so episode divider
    // activity is possible exactly when the probe itself speculates.
    CycleAttribution attribution;
    m.SetCycleAttribution(&attribution);
    m.PokeData(kFlagSlot, static_cast<uint64_t>(kFlagTrainAndVictim));
    m.Run(p.SymbolVaddr("user_do_syscall"));
    m.SetCycleAttribution(nullptr);
    return OutcomeFrom(m, attribution);
  }

  // Train.
  if (probe_case.train_mode == Mode::kUser) {
    m.Run(p.SymbolVaddr("user_train"));
  } else {
    m.PokeData(kFlagSlot, static_cast<uint64_t>(kFlagTrain));
    m.Run(p.SymbolVaddr("user_do_syscall"));
  }

  // Optional intervening (otherwise side-effect-free) syscall.
  const bool implied_transition = probe_case.victim_mode == Mode::kKernel ||
                                  probe_case.train_mode == Mode::kKernel;
  if (probe_case.intervening_syscall && !implied_transition) {
    m.PokeData(kFlagSlot, static_cast<uint64_t>(kFlagNop));
    m.Run(p.SymbolVaddr("user_do_syscall"));
  }

  // Probe: repoint the branch at nop_target and watch the divider through
  // the cycle accountant (training ran unobserved; only the victim run counts).
  CycleAttribution attribution;
  m.SetCycleAttribution(&attribution);
  m.PokeData(kPtrSlot, p.SymbolVaddr("nop_target"));
  if (probe_case.victim_mode == Mode::kUser) {
    m.Run(p.SymbolVaddr("user_victim"));
  } else {
    m.PokeData(kFlagSlot, static_cast<uint64_t>(kFlagVictim));
    m.Run(p.SymbolVaddr("user_do_syscall"));
  }
  m.SetCycleAttribution(nullptr);
  return OutcomeFrom(m, attribution);
}

ProbeOutcome SpeculationProbe::RunSameSiteControl() const {
  MachineLease lease(cpu_);
  Machine& m = *lease;
  static const ProbeProgram pp = BuildProbeProgram();
  const Program& p = pp.program;
  m.LoadProgram(&p);
  m.SetSyscallEntry(p.SymbolVaddr("syscall_entry"));
  m.SetReg(kRegSp, kStackTop);
  m.PokeData(kNopSlot, p.SymbolVaddr("nop_target"));
  m.PokeData(kPtrSlot, p.SymbolVaddr("victim_target"));
  // Train and probe through the *same* call site (user_victim both times).
  for (int i = 0; i < 6; i++) {
    m.Run(p.SymbolVaddr("user_victim"));
  }
  CycleAttribution attribution;
  m.SetCycleAttribution(&attribution);
  m.PokeData(kPtrSlot, p.SymbolVaddr("nop_target"));
  m.PokeData(kResultSlot, 0);
  m.Run(p.SymbolVaddr("user_victim"));
  m.SetCycleAttribution(nullptr);
  return OutcomeFrom(m, attribution);
}

}  // namespace specbench
