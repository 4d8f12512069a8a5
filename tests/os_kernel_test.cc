// End-to-end behaviour of the simulated kernel: syscall paths, mitigation
// placement, context switching, demand paging.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/os/kernel.h"
#include "src/uarch/cycle_attribution.h"

namespace specbench {
namespace {

// Builds a kernel whose boot process runs `loop_count` getpid syscalls.
std::unique_ptr<Kernel> GetpidKernel(Uarch uarch, const MitigationConfig& config,
                                     int loop_count = 8) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(uarch), config);
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  Label loop = b.NewLabel();
  b.MovImm(3, loop_count);
  b.Bind(loop);
  kernel->EmitSyscall(b, Sys::kGetpid);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, loop);
  b.Halt();
  kernel->Finalize();
  return kernel;
}

TEST(Kernel, GetpidReturnsPid) {
  auto kernel = GetpidKernel(Uarch::kZen2, MitigationConfig::AllOff(), 1);
  kernel->Run("user_main");
  EXPECT_EQ(kernel->machine().reg(0), 0u);  // boot pid
  EXPECT_EQ(kernel->machine().mode(), Mode::kUser);
}

TEST(Kernel, SyscallCountMatchesLoop) {
  auto kernel = GetpidKernel(Uarch::kZen2, MitigationConfig::AllOff(), 5);
  kernel->Run("user_main");
  EXPECT_EQ(kernel->machine().PmcValue(Pmc::kKernelEntries), 5u);
}

TEST(Kernel, PtiAddsCr3SwapCost) {
  const Uarch u = Uarch::kBroadwell;  // Meltdown-vulnerable
  MitigationConfig off = MitigationConfig::AllOff();
  MitigationConfig pti = MitigationConfig::AllOff();
  pti.pti = true;

  auto k_off = GetpidKernel(u, off, 50);
  auto k_pti = GetpidKernel(u, pti, 50);
  const uint64_t c_off = k_off->Run("user_main").cycles;
  const uint64_t c_pti = k_pti->Run("user_main").cycles;
  // Each syscall pays ~2 cr3 swaps (~412 cycles on Broadwell).
  EXPECT_GT(c_pti, c_off + 50 * 350);
}

TEST(Kernel, MdsClearAddsVerwCost) {
  const Uarch u = Uarch::kSkylakeClient;
  MitigationConfig off = MitigationConfig::AllOff();
  MitigationConfig mds = MitigationConfig::AllOff();
  mds.mds_clear_buffers = true;

  auto k_off = GetpidKernel(u, off, 50);
  auto k_mds = GetpidKernel(u, mds, 50);
  const uint64_t c_off = k_off->Run("user_main").cycles;
  const uint64_t c_mds = k_mds->Run("user_main").cycles;
  EXPECT_GT(c_mds, c_off + 50 * 400);  // verw ~518 cycles per syscall
}

TEST(Kernel, VerwIsCheapOnFixedHardwareEvenIfEnabled) {
  const Uarch u = Uarch::kIceLakeServer;
  MitigationConfig off = MitigationConfig::AllOff();
  MitigationConfig mds = MitigationConfig::AllOff();
  mds.mds_clear_buffers = true;

  auto k_off = GetpidKernel(u, off, 50);
  auto k_mds = GetpidKernel(u, mds, 50);
  const uint64_t c_off = k_off->Run("user_main").cycles;
  const uint64_t c_mds = k_mds->Run("user_main").cycles;
  EXPECT_LT(c_mds, c_off + 50 * 60);
}

TEST(Kernel, RetpolineCostOrdering) {
  // Generic retpolines are slower than no mitigation on every CPU.
  for (Uarch u : {Uarch::kBroadwell, Uarch::kCascadeLake, Uarch::kZen2}) {
    MitigationConfig off = MitigationConfig::AllOff();
    MitigationConfig generic = MitigationConfig::AllOff();
    generic.retpoline = RetpolineMode::kGeneric;
    auto k_off = GetpidKernel(u, off, 50);
    auto k_gen = GetpidKernel(u, generic, 50);
    EXPECT_GT(k_gen->Run("user_main").cycles, k_off->Run("user_main").cycles)
        << UarchName(u);
  }
}

TEST(Kernel, LegacyIbrsWritesSpecCtrlPerEntry) {
  const Uarch u = Uarch::kBroadwell;
  MitigationConfig off = MitigationConfig::AllOff();
  MitigationConfig ibrs = MitigationConfig::AllOff();
  ibrs.ibrs = IbrsMode::kLegacyIbrs;
  auto k_off = GetpidKernel(u, off, 50);
  auto k_ibrs = GetpidKernel(u, ibrs, 50);
  const uint64_t c_off = k_off->Run("user_main").cycles;
  const uint64_t c_ibrs = k_ibrs->Run("user_main").cycles;
  // Two wrmsr per syscall at ~60 cycles each.
  EXPECT_GT(c_ibrs, c_off + 50 * 90);
}

TEST(Kernel, EibrsIsCheap) {
  const Uarch u = Uarch::kIceLakeServer;
  MitigationConfig off = MitigationConfig::AllOff();
  MitigationConfig eibrs = MitigationConfig::AllOff();
  eibrs.ibrs = IbrsMode::kEibrs;
  auto k_off = GetpidKernel(u, off, 50);
  auto k_eibrs = GetpidKernel(u, eibrs, 50);
  const uint64_t c_off = k_off->Run("user_main").cycles;
  const uint64_t c_eibrs = k_eibrs->Run("user_main").cycles;
  // eIBRS adds no per-entry MSR writes; only the periodic scrub shows up.
  EXPECT_LT(c_eibrs, c_off + c_off / 2);
}

TEST(Kernel, ReadCopiesKernelData) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen3),
                                         MitigationConfig::AllOff());
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  b.MovImm(0, static_cast<int64_t>(kUserDataVaddr));  // user buffer
  b.MovImm(1, 64);                                    // bytes
  kernel->EmitSyscall(b, Sys::kRead);
  b.Halt();
  kernel->Finalize();
  kernel->Run("user_main");
  // read() copies from the kernel heap, which Finalize seeded.
  EXPECT_EQ(kernel->machine().PeekData(kUserDataVaddr), 0x1234567800ULL);
  EXPECT_EQ(kernel->machine().PeekData(kUserDataVaddr + 8), 0x1234567808ULL);
}

TEST(Kernel, WriteCopiesUserData) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen3),
                                         MitigationConfig::AllOff());
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  b.MovImm(4, 0xABCD);
  b.MovImm(5, static_cast<int64_t>(kUserDataVaddr + 256));
  b.Store(MemRef{.base = 5}, 4);
  b.MovImm(0, static_cast<int64_t>(kUserDataVaddr + 256));
  b.MovImm(1, 8);
  kernel->EmitSyscall(b, Sys::kWrite);
  b.Halt();
  kernel->Finalize();
  kernel->Run("user_main");
  const uint64_t saved_cr3 = kernel->machine().cr3();
  kernel->machine().SetCr3(kernel->process(0).kernel_cr3);
  EXPECT_EQ(kernel->machine().PeekData(kKernelHeapVaddr), 0xABCDu);
  kernel->machine().SetCr3(saved_cr3);
}

TEST(Kernel, MmapThenTouchFaultsOnce) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen2),
                                         MitigationConfig::AllOff());
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  b.MovImm(0, 2 * 4096);
  kernel->EmitSyscall(b, Sys::kMmap);
  // r0 = mapped vaddr. Touch both pages.
  b.MovImm(4, 1);
  b.Store(MemRef{.base = 0}, 4);
  b.Store(MemRef{.base = 0, .disp = 4096}, 4);
  b.Store(MemRef{.base = 0, .disp = 8}, 4);  // same page: no new fault
  b.Halt();
  kernel->Finalize();
  kernel->Run("user_main");
  EXPECT_EQ(kernel->page_faults(), 2u);
}

TEST(Kernel, MunmapRemovesMapping) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen2),
                                         MitigationConfig::AllOff());
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  b.MovImm(0, 4096);
  kernel->EmitSyscall(b, Sys::kMmap);
  b.Mov(7, 0);                      // save vaddr
  b.MovImm(4, 9);
  b.Store(MemRef{.base = 7}, 4);    // fault + map
  b.Mov(0, 7);
  kernel->EmitSyscall(b, Sys::kMunmap);
  b.Halt();
  kernel->Finalize();
  kernel->Run("user_main");
  Process& p = kernel->process(0);
  EXPECT_FALSE(kernel->mapper().Translate(kUserMmapBase, p.user_cr3, Mode::kKernel).mapped);
  EXPECT_TRUE(p.vmas.empty());
}

// Two processes ping-ponging via yield.
std::unique_ptr<Kernel> PingPongKernel(Uarch uarch, const MitigationConfig& config,
                                       int yields) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(uarch), config);
  Process& p1 = kernel->CreateProcess();
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("p0_main");
  Label loop0 = b.NewLabel();
  b.MovImm(3, yields);
  b.Bind(loop0);
  kernel->EmitSyscall(b, Sys::kYield);
  b.AluImm(AluOp::kSub, 3, 3, 1);
  b.BranchNz(3, loop0);
  b.Halt();
  b.BindSymbol("p1_main");
  Label loop1 = b.NewLabel();
  b.Bind(loop1);
  kernel->EmitSyscall(b, Sys::kYield);
  b.Jmp(loop1);
  kernel->Finalize();
  kernel->SetProcessEntry(p1.pid, "p1_main");
  return kernel;
}

TEST(Kernel, ContextSwitchPingPong) {
  auto kernel = PingPongKernel(Uarch::kZen2, MitigationConfig::AllOff(), 6);
  kernel->Run("p0_main");
  // 6 yields from p0 + 5 or 6 from p1.
  EXPECT_GE(kernel->context_switches(), 11u);
  EXPECT_LE(kernel->context_switches(), 12u);
}

TEST(Kernel, IbpbOnlyChargedForProtectedProcesses) {
  // Linux applies IBPB conditionally: only when the incoming process opted
  // into protection (seccomp/prctl). Unprotected ping-pong pays nothing.
  const Uarch u = Uarch::kZen1;  // IBPB costs 7400 cycles there
  MitigationConfig off = MitigationConfig::AllOff();
  MitigationConfig ibpb = MitigationConfig::AllOff();
  ibpb.ibpb_on_context_switch = true;

  auto k_plain = PingPongKernel(u, ibpb, 10);
  auto k_off = PingPongKernel(u, off, 10);
  const uint64_t c_plain = k_plain->Run("p0_main").cycles;
  const uint64_t c_off = k_off->Run("p0_main").cycles;
  EXPECT_LT(c_plain, c_off + c_off / 10);  // no IBPB for unprotected tasks

  auto k_protected = PingPongKernel(u, ibpb, 10);
  k_protected->process(0).uses_seccomp = true;
  k_protected->process(1).uses_seccomp = true;
  const uint64_t c_protected = k_protected->Run("p0_main").cycles;
  EXPECT_GT(c_protected, c_off + 19 * 7000);
}

TEST(Kernel, RsbStuffingRunsOnSwitch) {
  MitigationConfig config = MitigationConfig::AllOff();
  config.rsb_stuff_on_context_switch = true;
  auto kernel = PingPongKernel(Uarch::kZen2, config, 2);
  kernel->Run("p0_main");
  // After the last switch the RSB contains stuffed (benign) entries among
  // the call/ret traffic; at minimum the stuff instruction executed.
  EXPECT_GE(kernel->context_switches(), 3u);
}

TEST(Kernel, LazyFpuTrapSwapsStateOnFirstUse) {
  MitigationConfig config = MitigationConfig::AllOff();
  config.eager_fpu = false;
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kSkylakeClient), config);
  Process& p1 = kernel->CreateProcess();
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("p0_main");
  b.MovImm(4, 42);
  b.GpToFp(0, 4);                     // p0 owns the FPU with value 42
  kernel->EmitSyscall(b, Sys::kYield);  // -> p1
  kernel->EmitSyscall(b, Sys::kYield);  // second round
  b.Halt();
  b.BindSymbol("p1_main");
  Label loop = b.NewLabel();
  b.Bind(loop);
  b.FpOp(1);                          // traps on first use after each switch
  kernel->EmitSyscall(b, Sys::kYield);
  b.Jmp(loop);
  kernel->Finalize();
  kernel->SetProcessEntry(p1.pid, "p1_main");
  kernel->Run("p0_main");
  // p0's register value survived p1's FPU use via the lazy save/restore.
  EXPECT_EQ(kernel->process(0).fp_state[0], 42u);
}

TEST(Kernel, SeccompProcessGetsSsbdUnderSeccompPolicy) {
  MitigationConfig config = MitigationConfig::AllOff();
  config.ssbd = SsbdMode::kSeccomp;
  auto kernel = GetpidKernel(Uarch::kZen3, config, 1);
  Process& p0 = kernel->process(0);
  EXPECT_FALSE(kernel->SsbdActiveFor(p0));
  p0.uses_seccomp = true;
  EXPECT_TRUE(kernel->SsbdActiveFor(p0));
  config.ssbd = SsbdMode::kOff;
}

TEST(Kernel, SsbdPolicyMatrix) {
  auto kernel = GetpidKernel(Uarch::kZen3, MitigationConfig::AllOff(), 1);
  Process p;
  p.uses_seccomp = true;
  // Recreate kernels cheaply by checking the policy helper directly through
  // configs; SsbdActiveFor consults the kernel's own config, so build one
  // per mode.
  MitigationConfig always = MitigationConfig::AllOff();
  always.ssbd = SsbdMode::kAlways;
  auto k_always = GetpidKernel(Uarch::kZen3, always, 1);
  EXPECT_TRUE(k_always->SsbdActiveFor(k_always->process(0)));

  MitigationConfig prctl_mode = MitigationConfig::AllOff();
  prctl_mode.ssbd = SsbdMode::kPrctl;
  auto k_prctl = GetpidKernel(Uarch::kZen3, prctl_mode, 1);
  EXPECT_FALSE(k_prctl->SsbdActiveFor(k_prctl->process(0)));
  k_prctl->process(0).ssbd_prctl = true;
  EXPECT_TRUE(k_prctl->SsbdActiveFor(k_prctl->process(0)));
}

TEST(Kernel, BoundaryCrossingCostTracksMitigationDelta) {
  // The fault-path cost model's *mitigation delta* must match the measured
  // per-syscall slowdown of a null syscall (handler work cancels out).
  for (Uarch u : {Uarch::kBroadwell, Uarch::kIceLakeServer, Uarch::kZen3}) {
    const CpuModel& cpu = GetCpuModel(u);
    const MitigationConfig defaults = MitigationConfig::Defaults(cpu);
    const MitigationConfig off = MitigationConfig::AllOff();
    auto k_def = GetpidKernel(u, defaults, 64);
    auto k_off = GetpidKernel(u, off, 64);
    const double measured_delta =
        (static_cast<double>(k_def->Run("user_main").cycles) -
         static_cast<double>(k_off->Run("user_main").cycles)) /
        64.0;
    const double model_delta = static_cast<double>(k_def->BoundaryCrossingCost()) -
                               static_cast<double>(k_off->BoundaryCrossingCost());
    EXPECT_NEAR(measured_delta, model_delta, model_delta * 0.5 + 120.0) << UarchName(u);
  }
}

// The page-fault path charges the fault-path cost model per cause: the
// recorded causes sum to BoundaryCrossingCost(), and a generic retpoline
// charges V2 only what its thunk costs beyond a predicted dispatch.
TEST(Kernel, BoundaryCrossingChargeMatchesTheCostModel) {
  for (Uarch u : AllUarches()) {
    const CpuModel& cpu = GetCpuModel(u);
    std::vector<MitigationConfig> configs = {MitigationConfig::Defaults(cpu),
                                             MitigationConfig::AllOff()};
    for (RetpolineMode mode : {RetpolineMode::kNone, RetpolineMode::kGeneric,
                               RetpolineMode::kAmd}) {
      configs.push_back(MitigationConfig::AllOff());
      configs.back().retpoline = mode;
    }
    for (const MitigationConfig& config : configs) {
      auto kernel = GetpidKernel(u, config, 1);
      CycleAttribution attribution;
      kernel->machine().SetCycleAttribution(&attribution);
      kernel->ChargeBoundaryCrossing();
      const CycleAttribution::Totals& totals = attribution.totals();
      uint64_t cause_sum = 0;
      for (uint64_t cycles : totals.cause_cycles) {
        cause_sum += cycles;
      }
      EXPECT_EQ(cause_sum, kernel->BoundaryCrossingCost()) << UarchName(u);
      if (config.retpoline == RetpolineMode::kGeneric && config.ibrs == IbrsMode::kOff) {
        const uint64_t thunk = 7 + cpu.latency.mispredict_penalty;
        EXPECT_EQ(totals.Cause(CauseTag::kSpectreV2),
                  thunk - std::min<uint64_t>(cpu.latency.indirect_predicted, thunk))
            << UarchName(u);
      }
    }
  }
}

TEST(Kernel, MeltdownSurfaceDependsOnPti) {
  // Without PTI the kernel secret is mapped (supervisor-only) in the user
  // view; with PTI it is absent.
  MitigationConfig no_pti = MitigationConfig::AllOff();
  auto k1 = GetpidKernel(Uarch::kBroadwell, no_pti, 1);
  const Process& p1 = k1->process(0);
  EXPECT_TRUE(k1->mapper().Translate(kKernelSecretVaddr, p1.user_cr3, Mode::kKernel).mapped);
  EXPECT_FALSE(
      k1->mapper().Translate(kKernelSecretVaddr, p1.user_cr3, Mode::kUser).valid);

  MitigationConfig pti = MitigationConfig::AllOff();
  pti.pti = true;
  auto k2 = GetpidKernel(Uarch::kBroadwell, pti, 1);
  const Process& p2 = k2->process(0);
  EXPECT_FALSE(k2->mapper().Translate(kKernelSecretVaddr, p2.user_cr3, Mode::kKernel).mapped);
  EXPECT_TRUE(k2->mapper().Translate(kKernelSecretVaddr, p2.kernel_cr3, Mode::kKernel).mapped);
}

TEST(Kernel, ForkReturnsChildPid) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen2),
                                         MitigationConfig::AllOff());
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  kernel->EmitSyscall(b, Sys::kFork);
  b.Halt();
  kernel->Finalize();
  kernel->Run("user_main");
  EXPECT_EQ(kernel->machine().reg(0), 1u);
  EXPECT_EQ(kernel->process_count(), 1);  // fork+exit model reaps the child
}

TEST(Kernel, CustomSyscall) {
  auto kernel = std::make_unique<Kernel>(GetCpuModel(Uarch::kZen2),
                                         MitigationConfig::AllOff());
  kernel->DefineSyscall(static_cast<int>(Sys::kCustomBase), [](ProgramBuilder& pb) {
    pb.MovImm(0, 777);
    pb.Ret();
  });
  ProgramBuilder& b = kernel->builder();
  b.BindSymbol("user_main");
  kernel->EmitSyscall(b, Sys::kCustomBase);
  b.Halt();
  kernel->Finalize();
  kernel->Run("user_main");
  EXPECT_EQ(kernel->machine().reg(0), 777u);
}

TEST(Kernel, DefaultsRunOnAllEightCpus) {
  for (Uarch u : AllUarches()) {
    const MitigationConfig config = MitigationConfig::Defaults(GetCpuModel(u));
    auto kernel = GetpidKernel(u, config, 10);
    const auto result = kernel->Run("user_main");
    EXPECT_TRUE(result.halted) << UarchName(u);
    EXPECT_EQ(kernel->machine().PmcValue(Pmc::kKernelEntries), 10u) << UarchName(u);
  }
}

TEST(Kernel, MitigationsAlwaysSlowerOrEqualOnBoundary) {
  // Property: full defaults never make syscalls *faster* than mitigations=off
  // (eager FPU excepted; it is on in both configs).
  for (Uarch u : AllUarches()) {
    auto k_off = GetpidKernel(u, MitigationConfig::AllOff(), 40);
    auto k_def = GetpidKernel(u, MitigationConfig::Defaults(GetCpuModel(u)), 40);
    const uint64_t c_off = k_off->Run("user_main").cycles;
    const uint64_t c_def = k_def->Run("user_main").cycles;
    EXPECT_GE(c_def, c_off) << UarchName(u);
  }
}

}  // namespace
}  // namespace specbench
