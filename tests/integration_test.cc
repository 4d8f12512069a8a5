// Cross-module integration: attacks and mitigations exercised through the
// *full* OS stack (real syscall paths, real context switches, real address
// spaces) rather than the bare machine — plus the tracer plumbing used by
// the analysis tooling.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/os/kernel.h"
#include "src/uarch/machine.h"

namespace specbench {
namespace {

// --- Meltdown against the real kernel's address spaces ----------------------
//
// The victim is the kernel's own secret page (seeded by Finalize). The
// attacker is plain user code inside the simulated process. With PTI off the
// secret page is mapped-but-supervisor-only; with PTI on it is simply absent
// from the user view.
bool KernelMeltdownLeaks(Uarch uarch, bool pti) {
  const CpuModel& cpu = GetCpuModel(uarch);
  MitigationConfig config = MitigationConfig::AllOff();
  config.pti = pti;
  Kernel kernel(cpu, config);
  ProgramBuilder& b = kernel.builder();

  constexpr int64_t kProbe = static_cast<int64_t>(kUserDataVaddr) + 0x200000;
  constexpr int64_t kGuard = static_cast<int64_t>(kUserDataVaddr) + 0x1000;

  b.BindSymbol("user_main");
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, kGuard);
  b.Load(2, MemRef{.base = 1});
  const int32_t branch_index = b.NextIndex();
  b.BranchNz(2, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.MovImm(3, static_cast<int64_t>(kKernelSecretVaddr));
  b.Load(4, MemRef{.base = 3});          // transient kernel read
  b.AluImm(AluOp::kAnd, 4, 4, 15);       // low nibble of the secret
  b.AluImm(AluOp::kShl, 5, 4, 12);
  b.MovImm(6, kProbe);
  b.Load(7, MemRef{.base = 6, .index = 5, .scale = 1});
  b.Bind(done);
  b.Halt();
  kernel.Finalize();

  Machine& m = kernel.machine();
  // PeekData uses the *current* cr3; under PTI the secret is absent from
  // the user view, so read it through the kernel view explicitly.
  uint64_t secret = 0;
  {
    const uint64_t saved = m.cr3();
    m.SetCr3(kernel.process(0).kernel_cr3);
    secret = m.PeekData(kKernelSecretVaddr) & 15;
    m.SetCr3(saved);
  }

  m.PokeData(static_cast<uint64_t>(kGuard), 0);
  m.cond_predictor().Train(kernel.program().VaddrOf(branch_index), true);
  m.cond_predictor().Train(kernel.program().VaddrOf(branch_index), true);
  m.caches().Clflush(static_cast<uint64_t>(kGuard));
  const uint64_t probe_line = static_cast<uint64_t>(kProbe) + secret * 4096;
  // Resolve the probe line's physical address for the cache check.
  const Translation probe_t =
      kernel.mapper().Translate(probe_line, kernel.process(0).user_cr3, Mode::kUser);
  m.caches().Clflush(probe_t.paddr);
  kernel.Run("user_main");
  return m.caches().LevelOf(probe_t.paddr) != 0;
}

TEST(KernelIntegration, MeltdownThroughRealPageTables) {
  EXPECT_TRUE(KernelMeltdownLeaks(Uarch::kBroadwell, /*pti=*/false));
  EXPECT_FALSE(KernelMeltdownLeaks(Uarch::kBroadwell, /*pti=*/true));
  EXPECT_FALSE(KernelMeltdownLeaks(Uarch::kZen3, /*pti=*/false));  // immune silicon
}

// --- Spectre V2 across real processes with conditional IBPB ------------------
//
// The attacker process trains the BTB through an indirect call in shared
// user code (secret=3 during training, so its architectural gadget runs
// encode a different line); a kcall then plants the real secret and flushes
// its probe line. After a real context switch (yield) the victim executes
// the same call site with the pointer flipped to benign code: only *transient*
// execution of the gadget can touch the real secret's probe line.
bool CrossProcessV2Leaks(Uarch uarch, bool ibpb, bool victim_protected) {
  const CpuModel& cpu = GetCpuModel(uarch);
  MitigationConfig config = MitigationConfig::AllOff();
  config.ibpb_on_context_switch = ibpb;
  Kernel kernel(cpu, config);
  Process& victim = kernel.CreateProcess();
  victim.uses_seccomp = victim_protected;
  ProgramBuilder& b = kernel.builder();

  constexpr int64_t kPtrSlot = static_cast<int64_t>(kUserDataVaddr) + 0x3000;
  constexpr int64_t kSecretSlot = static_cast<int64_t>(kUserDataVaddr) + 0x4000;
  constexpr int64_t kBenignSlot = static_cast<int64_t>(kUserDataVaddr) + 0x5000;
  constexpr int64_t kProbe = static_cast<int64_t>(kUserDataVaddr) + 0x200000;
  constexpr uint64_t kRealSecret = 9;
  constexpr int64_t kPlantSecretKcall = 100;  // clear of the kernel's own kcall ids

  Label shared_call = b.NewLabel();

  // The gadget reads the secret and encodes it in the probe array.
  b.BindSymbol("gadget");
  b.MovImm(5, kSecretSlot);
  b.Load(6, MemRef{.base = 5});
  b.AluImm(AluOp::kShl, 7, 6, 12);
  b.MovImm(5, kProbe);
  b.Load(5, MemRef{.base = 5, .index = 7, .scale = 1});
  b.Ret();

  b.BindSymbol("benign");
  b.Ret();

  // Shared library code: both processes call through the pointer here.
  b.BindSymbol("do_call");
  b.Bind(shared_call);
  b.MovImm(2, kPtrSlot);
  b.Clflush(MemRef{.base = 2});
  b.Load(3, MemRef{.base = 2});
  b.IndirectCall(3);
  b.Ret();

  // Attacker (boot process): train, plant the real secret, yield, halt.
  b.BindSymbol("attacker_main");
  Label train = b.NewLabel();
  b.MovImm(4, 6);
  b.Bind(train);
  b.Call(shared_call);
  b.AluImm(AluOp::kSub, 4, 4, 1);
  b.BranchNz(4, train);
  b.Kcall(kPlantSecretKcall);  // swap in the real secret (see hook)
  kernel.EmitSyscall(b, Sys::kYield);
  b.Halt();

  // Victim: flip the pointer to benign, make the call once, yield back.
  b.BindSymbol("victim_main");
  Label vloop = b.NewLabel();
  b.Bind(vloop);
  b.MovImm(4, kPtrSlot);
  b.Load(5, MemRef{.disp = kBenignSlot});
  b.Store(MemRef{.base = 4}, 5);
  b.Call(shared_call);
  kernel.EmitSyscall(b, Sys::kYield);
  b.Jmp(vloop);

  // Hook: plant the real secret and flush its probe line, so only
  // post-training (transient) gadget executions can re-warm it.
  uint64_t probe_paddr = 0;
  kernel.machine().RegisterKcall(kPlantSecretKcall, [&](Machine& m) {
    m.PokeData(static_cast<uint64_t>(kSecretSlot), kRealSecret);
    m.caches().Clflush(probe_paddr);
  });

  kernel.Finalize();
  kernel.SetProcessEntry(victim.pid, "victim_main");

  Machine& m = kernel.machine();
  const Program& p = kernel.program();
  m.PokeData(static_cast<uint64_t>(kSecretSlot), 3);  // decoy during training
  m.PokeData(static_cast<uint64_t>(kPtrSlot), p.SymbolVaddr("gadget"));
  m.PokeData(static_cast<uint64_t>(kBenignSlot), p.SymbolVaddr("benign"));
  const uint64_t probe_line = static_cast<uint64_t>(kProbe) + kRealSecret * 4096;
  probe_paddr =
      kernel.mapper().Translate(probe_line, kernel.process(0).user_cr3, Mode::kUser).paddr;

  kernel.Run("attacker_main");
  return m.caches().LevelOf(probe_paddr) != 0;
}

TEST(KernelIntegration, ConditionalIbpbProtectsOptedInVictims) {
  // No IBPB: the victim's indirect call (during the attacker's yield) is
  // steered to the gadget, which transiently reads the real secret.
  EXPECT_TRUE(CrossProcessV2Leaks(Uarch::kSkylakeClient, /*ibpb=*/false,
                                  /*victim_protected=*/false));
  // Conditional IBPB + an opted-in victim: the switch flushes the BTB.
  EXPECT_FALSE(CrossProcessV2Leaks(Uarch::kSkylakeClient, /*ibpb=*/true,
                                   /*victim_protected=*/true));
  // IBPB configured but the victim never opted in: conditional IBPB skips
  // the barrier and the attack still lands (the Linux-default trade-off).
  EXPECT_TRUE(CrossProcessV2Leaks(Uarch::kSkylakeClient, /*ibpb=*/true,
                                  /*victim_protected=*/false));
}

// --- Tracer --------------------------------------------------------------------

TEST(Tracer, CommittedInstructionsOnlyInProgramOrder) {
  Machine m(GetCpuModel(Uarch::kZen2));
  std::vector<Machine::TraceRecord> trace;
  m.SetTraceHook([&trace](const Machine::TraceRecord& r) { trace.push_back(r); });
  ProgramBuilder b;
  Label skip = b.NewLabel();
  b.MovImm(0, 0);
  b.BranchNz(0, skip);  // not taken
  b.DivImm(1, 0, 3);
  b.Bind(skip);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.Run(p.VaddrOf(0));
  ASSERT_EQ(trace.size(), 4u);  // mov, branch, div, halt
  EXPECT_EQ(trace[0].op, Op::kMovImm);
  EXPECT_EQ(trace[1].op, Op::kBranchNz);
  EXPECT_EQ(trace[2].op, Op::kDiv);
  EXPECT_EQ(trace[3].op, Op::kHalt);
  // Cycle stamps never decrease.
  for (size_t i = 1; i < trace.size(); i++) {
    EXPECT_GE(trace[i].cycle, trace[i - 1].cycle);
  }
}

TEST(Tracer, SpeculativeEpisodesAreNotTraced) {
  Machine m(GetCpuModel(Uarch::kBroadwell));
  int div_traces = 0;
  m.SetTraceHook([&div_traces](const Machine::TraceRecord& r) {
    if (r.op == Op::kDiv) {
      div_traces++;
    }
  });
  // A mispredicted branch whose wrong path contains a div: the div runs
  // speculatively (divider PMC fires) but never commits, so never traces.
  ProgramBuilder b;
  Label spec = b.NewLabel();
  Label done = b.NewLabel();
  b.MovImm(1, 0x900000);
  b.Load(2, MemRef{.base = 1});
  const int32_t branch_index = b.NextIndex();
  b.BranchNz(2, spec);
  b.Jmp(done);
  b.Bind(spec);
  b.MovImm(4, 35);   // operands ready inside the window (unlike the guard)
  b.DivImm(3, 4, 7);
  b.Bind(done);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.PokeData(0x900000, 0);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.cond_predictor().Train(p.VaddrOf(branch_index), true);
  m.caches().Clflush(0x900000);
  m.Run(p.VaddrOf(0));
  EXPECT_EQ(div_traces, 0);
  EXPECT_GT(m.PmcValue(Pmc::kArithDividerActive), 0u);
}

TEST(Tracer, ModeTransitionsVisible) {
  Machine m(GetCpuModel(Uarch::kZen2));
  m.SetReg(kRegSp, 0x700000);
  std::vector<Mode> modes;
  m.SetTraceHook([&modes](const Machine::TraceRecord& r) { modes.push_back(r.mode); });
  ProgramBuilder b;
  Label entry = b.NewLabel();
  b.Syscall();
  b.Halt();
  b.Bind(entry);
  b.Sysret();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.SetSyscallEntry(p.VaddrOf(2));
  m.Run(p.VaddrOf(0));
  ASSERT_EQ(modes.size(), 3u);  // syscall (user), sysret (kernel), halt (user)
  EXPECT_EQ(modes[0], Mode::kUser);
  EXPECT_EQ(modes[1], Mode::kKernel);
  EXPECT_EQ(modes[2], Mode::kUser);
}

}  // namespace
}  // namespace specbench
