#include "src/workload/parsec.h"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <utility>

#include "src/os/kernel.h"
#include "src/uarch/machine_pool.h"
#include "src/util/check.h"
#include "src/workload/measurement.h"

namespace specbench {

namespace {

constexpr int64_t kDataBase = static_cast<int64_t>(kUserDataVaddr) + 0x100000;

// swaptions: HJM path simulation — long arithmetic recurrences (mul/div/
// add chains) over a small state vector; few stores.
void EmitSwaptions(ProgramBuilder& b) {
  Label outer = b.NewLabel();
  b.MovImm(0, 48);            // simulation paths
  b.MovImm(1, 12345);         // rate state
  b.Bind(outer);
  // One path: a dependent arithmetic chain (drift + vol terms).
  for (int step = 0; step < 6; step++) {
    b.MulImm(1, 1, 1103515245);
    b.AluImm(AluOp::kAdd, 1, 1, 12345);
    b.AluImm(AluOp::kShr, 2, 1, 16);
    b.Alu(AluOp::kXor, 1, 1, 2);
    b.DivImm(2, 1, 97);       // discount factor
    b.Alu(AluOp::kAdd, 4, 4, 2);
  }
  // Store the path payoff and read the running total back (small working
  // set: one cache line reused).
  b.AluImm(AluOp::kAnd, 3, 0, 7);
  b.Store(MemRef{.base = kNoReg, .index = 3, .scale = 8, .disp = kDataBase}, 4);
  b.Load(5, MemRef{.base = kNoReg, .index = 3, .scale = 8, .disp = kDataBase});
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, outer);
  b.Halt();
}

// facesim: mesh relaxation — write each node, then read neighbours that
// were just written (store-to-load forwarding on the critical path, large
// working set).
void EmitFacesim(ProgramBuilder& b) {
  Label outer = b.NewLabel();
  Label inner = b.NewLabel();
  b.MovImm(0, 12);             // relaxation sweeps
  b.Bind(outer);
  b.MovImm(1, 96);             // nodes per sweep
  b.Bind(inner);
  // position[i] = f(position[i-1], force[i]) — the freshly stored
  // position[i-1] is immediately loaded back.
  b.Lea(2, MemRef{.base = kNoReg, .index = 1, .scale = 64, .disp = kDataBase});
  b.Load(3, MemRef{.base = 2, .disp = 64});    // neighbour stored last iteration
  b.Load(4, MemRef{.base = 2, .disp = 8});     // force term
  b.Alu(AluOp::kAdd, 3, 3, 4);
  b.AluImm(AluOp::kShr, 5, 3, 2);
  b.Alu(AluOp::kSub, 3, 3, 5);
  b.Store(MemRef{.base = 2}, 3);               // new position
  b.AluImm(AluOp::kSub, 1, 1, 1);
  b.BranchNz(1, inner);
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, outer);
  b.Halt();
}

// bodytrack: particle filter — medium working set, mixed loads, stores,
// data-dependent branches, some arithmetic.
void EmitBodytrack(ProgramBuilder& b) {
  Label outer = b.NewLabel();
  Label keep = b.NewLabel();
  b.MovImm(0, 220);            // particles
  b.MovImm(6, 0);              // accepted count
  b.Bind(outer);
  b.AluImm(AluOp::kAnd, 1, 0, 127);
  b.Lea(2, MemRef{.base = kNoReg, .index = 1, .scale = 32, .disp = kDataBase + 0x40000});
  b.Load(3, MemRef{.base = 2});                // particle weight
  b.MulImm(3, 3, 17);
  b.AluImm(AluOp::kAdd, 3, 3, 29);
  b.Store(MemRef{.base = 2, .disp = 8}, 3);    // updated weight
  b.Load(4, MemRef{.base = 2, .disp = 8});     // read back for resampling
  b.AluImm(AluOp::kAnd, 5, 4, 3);
  b.BranchZ(5, keep);                          // data-dependent resample
  b.AluImm(AluOp::kAdd, 6, 6, 1);
  b.Store(MemRef{.base = 2, .disp = 16}, 6);
  b.Bind(keep);
  b.AluImm(AluOp::kSub, 0, 0, 1);
  b.BranchNz(0, outer);
  b.Halt();
}

void SeedData(Machine& m) {
  for (int64_t off = 0; off < 0x50000; off += 64) {
    m.PokeData(static_cast<uint64_t>(kDataBase + off), static_cast<uint64_t>(off) * 2654435761u);
  }
}

void EmitKernelByName(const std::string& name, ProgramBuilder& b) {
  if (name == "swaptions") {
    EmitSwaptions(b);
  } else if (name == "facesim") {
    EmitFacesim(b);
  } else if (name == "bodytrack") {
    EmitBodytrack(b);
  } else {
    SPECBENCH_CHECK_MSG(false, "unknown PARSEC kernel name");
  }
}

// Measured nosmt charge for one kernel on one CPU. The PARSEC suite is the
// multithreaded half of the study: with SMT on, each core retires two
// sibling streams in T_co cycles (RunCoResident on the shared pipeline);
// with the sibling disabled, the same two streams serialize into 2*T_solo.
// The slowdown 2*T_solo / T_co is therefore what the workload pays for
// nosmt — 1.0 when the siblings were contention-bound anyway (no SMT yield
// to lose), 2.0 at perfect overlap. Measured on the raw machine with the
// kernel body alone: the charge is a property of the instruction mix on the
// core, not of the syscall-path mitigations, which keeps the cache below
// independent of which sweep cell computes it first (byte-determinism for
// any --jobs).
double ComputeNosmtCharge(const std::string& name, const CpuModel& cpu) {
  ProgramBuilder b;
  b.BindSymbol("user_main");
  EmitKernelByName(name, b);
  Program p = b.Build();

  // Solo then co-resident, one lease each, so one machine is alive at a time.
  uint64_t solo_cycles = 0;
  {
    MachineLease solo(cpu);
    solo->LoadProgram(&p);
    SeedData(*solo);
    const Machine::RunResult solo_result = solo->Run(p.SymbolVaddr("user_main"));
    SPECBENCH_CHECK(solo_result.halted);
    solo_cycles = solo_result.cycles;
  }

  MachineLease co(cpu);
  co->LoadProgram(&p);
  SeedData(*co);
  Machine::CoResidentSpec thread_a;
  thread_a.program = &p;
  thread_a.entry_vaddr = p.SymbolVaddr("user_main");
  thread_a.smt_thread_id = 0;
  Machine::CoResidentSpec thread_b = thread_a;
  thread_b.smt_thread_id = 1;
  const Machine::CoResidentResult co_result = co->RunCoResident(thread_a, thread_b);
  SPECBENCH_CHECK(co_result.thread[0].halted && co_result.thread[1].halted);

  const double t_solo = static_cast<double>(solo_cycles);
  const double t_co = static_cast<double>(co_result.cycles);
  return std::clamp(2.0 * t_solo / t_co, 1.0, 2.0);
}

// ComputeNosmtCharge, once per (CPU, kernel) per process: cells that ask for
// the same charge concurrently wait for the first one instead of repeating it.
double MeasuredNosmtCharge(const std::string& name, const CpuModel& cpu) {
  struct Charge {
    std::once_flag once;
    double value = 0.0;
  };
  static std::mutex mu;
  static std::map<std::pair<int, std::string>, Charge> cache;
  Charge* charge = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    charge = &cache[{static_cast<int>(cpu.uarch), name}];
  }
  std::call_once(charge->once, [&] { charge->value = ComputeNosmtCharge(name, cpu); });
  return charge->value;
}

}  // namespace

const std::vector<std::string>& Parsec::KernelNames() {
  static const std::vector<std::string> kNames = {"swaptions", "facesim", "bodytrack"};
  return kNames;
}

double Parsec::RunKernel(const std::string& name, const CpuModel& cpu,
                         const MitigationConfig& config, uint64_t seed) {
  // nosmt: the PARSEC suite is the multithreaded half of the study — with
  // the sibling thread disabled, each core retires one stream instead of
  // two overlapping ones. Charge the *measured* co-run throughput from
  // RunCoResident (see MeasuredNosmtCharge) on parts that have SMT to
  // lose; single-stream LEBench/Octane latency is unaffected. Measured
  // before the kernel boots so its machines reuse this thread's slot.
  const double nosmt_charge =
      config.smt_off && cpu.smt ? MeasuredNosmtCharge(name, cpu) : 1.0;
  Kernel kernel(cpu, config);
  ProgramBuilder& b = kernel.builder();
  b.BindSymbol("user_main");
  EmitKernelByName(name, b);
  kernel.Finalize();
  // §4.5/§5.5: to see the full SSBD impact the process opts in via prctl.
  if (config.ssbd == SsbdMode::kAlways || config.ssbd == SsbdMode::kPrctl) {
    kernel.process(0).ssbd_prctl = config.ssbd == SsbdMode::kPrctl;
    kernel.machine().SetSsbd(kernel.SsbdActiveFor(kernel.process(0)));
  }
  SeedData(kernel.machine());
  const auto result = kernel.Run("user_main");
  const double cycles = static_cast<double>(result.cycles) * nosmt_charge;
  return ApplyNoise(cycles, seed ^ std::hash<std::string>{}(name), 0.004);
}

std::map<std::string, double> Parsec::RunSuite(const CpuModel& cpu,
                                               const MitigationConfig& config, uint64_t seed) {
  std::map<std::string, double> results;
  for (const std::string& name : KernelNames()) {
    results[name] = RunKernel(name, cpu, config, seed);
  }
  return results;
}

}  // namespace specbench
