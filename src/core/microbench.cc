#include "src/core/microbench.h"

#include <functional>

#include "src/isa/program.h"
#include "src/uarch/machine.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"

namespace specbench {

namespace {

constexpr uint64_t kStackTop = 0x70000000;
constexpr int kIterations = 512;

// Per-iteration cycles of a loop whose body is emitted by `emit` (may be
// empty), measured on a machine in power-on state.
double LoopCyclesPerIteration(const CpuModel& cpu,
                              const std::function<void(ProgramBuilder&)>& emit,
                              int iterations = kIterations) {
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.SetReg(kRegSp, kStackTop);
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.MovImm(0, iterations);
  b.Bind(loop);
  if (emit) {
    emit(b);
  }
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, loop);
  b.Halt();
  Program p = b.Build();
  m.LoadProgram(&p);
  const auto result = m.Run(p.VaddrOf(0));
  return static_cast<double>(result.cycles) / iterations;
}

// Loop body cost net of the bare loop.
double NetLoopCost(const CpuModel& cpu, const std::function<void(ProgramBuilder&)>& emit,
                   int iterations = kIterations) {
  const double with_body = LoopCyclesPerIteration(cpu, emit, iterations);
  const double empty = LoopCyclesPerIteration(cpu, nullptr, iterations);
  return with_body > empty ? with_body - empty : 0.0;
}

}  // namespace

EntryExitCosts MeasureEntryExit(const CpuModel& cpu) {
  // One program: the user loop timestamps around syscall; the kernel entry
  // timestamps before sysret; deltas accumulate in registers.
  //   r4: t before syscall      r7:  sum of (kernel t - t before syscall)
  //   r8: t before sysret       r12: sum of (user t - t before sysret)
  MachineLease lease(cpu);
  Machine& m = *lease;
  m.SetReg(kRegSp, kStackTop);
  ProgramBuilder b;
  Label loop = b.NewLabel();
  b.BindSymbol("user");
  b.MovImm(0, kIterations);
  b.MovImm(7, 0);
  b.MovImm(12, 0);
  b.Bind(loop);
  b.Lfence();
  b.Rdtsc(4);
  b.Syscall();
  // Resumed here after sysret.
  b.Rdtsc(9);
  b.Alu(AluOp::kSub, 9, 9, 8);
  b.Alu(AluOp::kAdd, 12, 12, 9);
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, loop);
  b.Halt();
  b.BindSymbol("kentry");
  b.Rdtsc(5);
  b.Alu(AluOp::kSub, 5, 5, 4);
  b.Alu(AluOp::kAdd, 7, 7, 5);
  b.Rdtsc(8);
  b.Sysret();
  Program p = b.Build();
  m.LoadProgram(&p);
  m.SetSyscallEntry(p.SymbolVaddr("kentry"));
  m.Run(p.SymbolVaddr("user"));

  EntryExitCosts costs;
  const double rdtsc = cpu.latency.rdtsc;
  costs.syscall =
      static_cast<double>(m.reg(7)) / kIterations - rdtsc;
  costs.sysret = static_cast<double>(m.reg(12)) / kIterations - rdtsc;
  if (costs.syscall < 0) {
    costs.syscall = 0;
  }
  if (costs.sysret < 0) {
    costs.sysret = 0;
  }
  // Table 3 reports the cr3 swap only for Meltdown-vulnerable parts.
  if (cpu.vuln.meltdown) {
    costs.swap_cr3 = NetLoopCost(cpu, [](ProgramBuilder& pb) {
      pb.MovImm(9, 0);
      pb.MovCr3(9);
    });
  }
  return costs;
}

double MeasureVerw(const CpuModel& cpu) {
  return NetLoopCost(cpu, [](ProgramBuilder& pb) { pb.Verw(); });
}

IndirectBranchCosts MeasureIndirectBranch(const CpuModel& cpu) {
  // Shared scaffolding: a trivial callee, an indirect call through r11 (the
  // register convention of Figure 4), and retpoline thunks.
  enum class Variant { kDirect, kIndirect, kIbrs, kGenericRetpoline, kAmdRetpoline };

  auto measure = [&cpu](Variant variant) {
    MachineLease lease(cpu);
    Machine& m = *lease;
    m.SetReg(kRegSp, kStackTop);
    if (variant == Variant::kIbrs) {
      m.SetIbrs(true);
    }
    ProgramBuilder b;
    Label fn = b.NewLabel();
    Label thunk = b.NewLabel();
    Label spin = b.NewLabel();
    Label setup = b.NewLabel();
    Label loop = b.NewLabel();
    Label start = b.NewLabel();
    b.Jmp(start);
    int32_t fn_index = b.NextIndex();
    b.Bind(fn);
    b.Ret();
    b.Bind(thunk);
    b.Call(setup);
    b.Bind(spin);
    b.Pause();
    b.Lfence();
    b.Jmp(spin);
    b.Bind(setup);
    b.Store(MemRef{.base = kRegSp}, 11);
    b.Ret();
    b.Bind(start);
    b.MovImm(0, kIterations);
    b.Bind(loop);
    switch (variant) {
      case Variant::kDirect:
        b.Call(fn);
        break;
      case Variant::kIndirect:
      case Variant::kIbrs:
        b.IndirectCall(11);
        break;
      case Variant::kGenericRetpoline:
        b.Call(thunk);
        break;
      case Variant::kAmdRetpoline:
        b.Lfence();
        b.IndirectCall(11);
        break;
    }
    b.AluImm(AluOp::kSub, 0, 0, 1);
    b.BranchNz(0, loop);
    b.Halt();
    Program p = b.Build();
    m.LoadProgram(&p);
    m.SetReg(11, p.VaddrOf(fn_index));
    const auto result = m.Run(p.VaddrOf(0));
    return static_cast<double>(result.cycles) / kIterations;
  };

  const double direct = measure(Variant::kDirect);
  IndirectBranchCosts costs;
  auto net = [&](Variant v) {
    const double value = measure(v) - direct;
    return value > 0 ? value : 0.0;
  };
  costs.baseline = net(Variant::kIndirect);
  costs.ibrs = cpu.predictor.ibrs_supported ? net(Variant::kIbrs) : -1.0;
  costs.generic_retpoline = net(Variant::kGenericRetpoline);
  costs.amd_retpoline = cpu.vendor == Vendor::kAmd ? net(Variant::kAmdRetpoline) : -1.0;
  return costs;
}

double MeasureIbpb(const CpuModel& cpu) {
  return NetLoopCost(
      cpu,
      [](ProgramBuilder& pb) {
        pb.MovImm(9, static_cast<int64_t>(kPredCmdIbpb));
        pb.Wrmsr(kMsrPredCmd, 9);
      },
      /*iterations=*/128);
}

double MeasureRsbStuff(const CpuModel& cpu) {
  return NetLoopCost(cpu, [](ProgramBuilder& pb) { pb.RsbStuff(); });
}

double MeasureLfence(const CpuModel& cpu) {
  return NetLoopCost(cpu, [](ProgramBuilder& pb) { pb.Lfence(); });
}

}  // namespace specbench
