#include "src/workload/lebench.h"

#include <functional>
#include <memory>

#include "src/os/kernel.h"
#include "src/stats/summary.h"
#include "src/util/check.h"
#include "src/workload/measurement.h"

namespace specbench {

namespace {

// User-code registers (preserved across syscalls per the kernel ABI).
constexpr uint8_t kCounter = 3;
constexpr uint8_t kTsc = 4;
constexpr uint8_t kSaved = 7;

constexpr int64_t kT0Slot = static_cast<int64_t>(kUserDataVaddr);
constexpr int64_t kT1Slot = static_cast<int64_t>(kUserDataVaddr) + 8;
constexpr int64_t kBufSlot = static_cast<int64_t>(kUserDataVaddr) + 4096;

struct KernelSpec {
  int warmup = 4;
  int iterations = 32;
  // Number of processes (context switch needs 2).
  int processes = 1;
  // Emits one operation of the benchmark into user code.
  std::function<void(Kernel&, ProgramBuilder&)> op;
};

void EmitTimedLoop(Kernel& kernel, const KernelSpec& spec) {
  ProgramBuilder& b = kernel.builder();
  b.BindSymbol("user_main");
  // Warmup: trains predictors and warms TLB/caches, as real harnesses do.
  Label warm = b.NewLabel();
  b.MovImm(kCounter, spec.warmup);
  b.Bind(warm);
  spec.op(kernel, b);
  b.AluImm(AluOp::kSub, kCounter, kCounter, 1);
  b.BranchNz(kCounter, warm);
  // Measured loop.
  b.Lfence();
  b.Rdtsc(kTsc);
  b.Store(MemRef{.disp = kT0Slot}, kTsc);
  Label meas = b.NewLabel();
  b.MovImm(kCounter, spec.iterations);
  b.Bind(meas);
  spec.op(kernel, b);
  b.AluImm(AluOp::kSub, kCounter, kCounter, 1);
  b.BranchNz(kCounter, meas);
  b.Lfence();
  b.Rdtsc(kTsc);
  b.Store(MemRef{.disp = kT1Slot}, kTsc);
  b.Halt();
}

// Emits the infinite-yield partner process used by the context switch test.
void EmitYieldPartner(Kernel& kernel) {
  ProgramBuilder& b = kernel.builder();
  b.BindSymbol("partner_main");
  Label loop = b.NewLabel();
  b.Bind(loop);
  kernel.EmitSyscall(b, Sys::kYield);
  b.Jmp(loop);
}

KernelSpec SpecFor(const std::string& name) {
  KernelSpec spec;
  if (name == "getpid") {
    spec.iterations = 64;
    spec.op = [](Kernel& k, ProgramBuilder& b) { k.EmitSyscall(b, Sys::kGetpid); };
  } else if (name == "context-switch") {
    spec.processes = 2;
    spec.iterations = 32;
    spec.op = [](Kernel& k, ProgramBuilder& b) { k.EmitSyscall(b, Sys::kYield); };
  } else if (name == "small-read" || name == "big-read") {
    const int64_t bytes = name == "small-read" ? 1024 : 65536;
    spec.iterations = name == "small-read" ? 32 : 6;
    spec.op = [bytes](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, kBufSlot);
      b.MovImm(1, bytes);
      k.EmitSyscall(b, Sys::kRead);
    };
  } else if (name == "small-write" || name == "big-write") {
    const int64_t bytes = name == "small-write" ? 1024 : 65536;
    spec.iterations = name == "small-write" ? 32 : 6;
    spec.op = [bytes](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, kBufSlot);
      b.MovImm(1, bytes);
      k.EmitSyscall(b, Sys::kWrite);
    };
  } else if (name == "mmap") {
    spec.iterations = 16;
    spec.op = [](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, 64 * 4096);
      k.EmitSyscall(b, Sys::kMmap);
    };
  } else if (name == "munmap") {
    // Each op maps then unmaps; the pair is dominated by the teardown.
    spec.iterations = 16;
    spec.op = [](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, 64 * 4096);
      k.EmitSyscall(b, Sys::kMmap);
      k.EmitSyscall(b, Sys::kMunmap);  // r0 still holds the vaddr
    };
  } else if (name == "page-fault") {
    spec.iterations = 16;
    spec.op = [](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, 4096);
      k.EmitSyscall(b, Sys::kMmap);
      b.Mov(kSaved, 0);
      b.MovImm(5, 1);
      b.Store(MemRef{.base = kSaved}, 5);  // demand fault
      b.Mov(0, kSaved);
      k.EmitSyscall(b, Sys::kMunmap);
    };
  } else if (name == "fork") {
    spec.iterations = 8;
    spec.op = [](Kernel& k, ProgramBuilder& b) { k.EmitSyscall(b, Sys::kFork); };
  } else if (name == "thread-create") {
    spec.iterations = 16;
    spec.op = [](Kernel& k, ProgramBuilder& b) { k.EmitSyscall(b, Sys::kThreadCreate); };
  } else if (name == "select") {
    spec.iterations = 24;
    spec.op = [](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, 32);  // nfds
      k.EmitSyscall(b, Sys::kSelect);
    };
  } else if (name == "huge-read") {
    spec.iterations = 3;
    spec.op = [](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, kBufSlot);
      b.MovImm(1, 262144);
      k.EmitSyscall(b, Sys::kRead);
    };
  } else if (name == "send-recv") {
    spec.iterations = 24;
    spec.op = [](Kernel& k, ProgramBuilder& b) {
      b.MovImm(0, kBufSlot);
      b.MovImm(1, 1024);
      k.EmitSyscall(b, Sys::kSend);
      b.MovImm(0, kBufSlot + 4096);
      b.MovImm(1, 1024);
      k.EmitSyscall(b, Sys::kRecv);
    };
  } else {
    SPECBENCH_CHECK_MSG(false, "unknown LEBench kernel name");
  }
  return spec;
}

}  // namespace

const std::vector<std::string>& LeBench::KernelNames() {
  static const std::vector<std::string> kNames = {
      "getpid",      "context-switch", "small-read",    "big-read",
      "huge-read",   "small-write",    "big-write",     "mmap",
      "munmap",      "page-fault",     "fork",          "thread-create",
      "send-recv",   "select",
  };
  return kNames;
}

double LeBench::SimulateKernel(const std::string& name, const CpuModel& cpu,
                               const MitigationConfig& config, CycleAttribution* attribution) {
  const KernelSpec spec = SpecFor(name);
  Kernel kernel(cpu, config);
  Process* partner = nullptr;
  if (spec.processes == 2) {
    partner = &kernel.CreateProcess();
  }
  EmitTimedLoop(kernel, spec);
  if (partner != nullptr) {
    EmitYieldPartner(kernel);
  }
  kernel.Finalize();
  if (partner != nullptr) {
    kernel.SetProcessEntry(partner->pid, "partner_main");
  }
  if (attribution != nullptr) {
    attribution->Reset();
    kernel.machine().SetCycleAttribution(attribution);
  }
  kernel.Run("user_main");
  if (attribution != nullptr) {
    kernel.machine().SetCycleAttribution(nullptr);
  }
  Machine& m = kernel.machine();
  const uint64_t t0 = m.PeekData(static_cast<uint64_t>(kT0Slot));
  const uint64_t t1 = m.PeekData(static_cast<uint64_t>(kT1Slot));
  SPECBENCH_CHECK(t1 > t0);
  return static_cast<double>(t1 - t0) / spec.iterations;
}

std::map<std::string, double> LeBench::SimulateSuite(const CpuModel& cpu,
                                                     const MitigationConfig& config) {
  std::map<std::string, double> results;
  for (const std::string& name : KernelNames()) {
    results[name] = SimulateKernel(name, cpu, config);
  }
  return results;
}

double LeBench::RunKernel(const std::string& name, const CpuModel& cpu,
                          const MitigationConfig& config, uint64_t seed,
                          CycleAttribution* attribution) {
  return NoisyKernel(name, SimulateKernel(name, cpu, config, attribution), seed);
}

std::map<std::string, double> LeBench::RunSuite(const CpuModel& cpu,
                                                const MitigationConfig& config,
                                                uint64_t seed) {
  return NoisySuite(SimulateSuite(cpu, config), seed);
}

double LeBench::SuiteGeomean(const std::map<std::string, double>& results) {
  std::vector<double> values;
  values.reserve(results.size());
  for (const auto& [name, value] : results) {
    values.push_back(value);
  }
  return GeometricMean(values);
}

}  // namespace specbench
