// Quickstart: the spectrebench public API in one file.
//
//   1. Pick a CPU model from the catalog (paper Table 2).
//   2. Boot a simulated kernel with a mitigation configuration.
//   3. Run an OS-intensive workload and compare mitigations on vs off.
//   4. Verify the security side of the trade: Meltdown leaks on this CPU
//      without PTI and is blocked with it.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/attack/suite.h"
#include "src/os/kernel.h"
#include "src/workload/lebench.h"

using namespace specbench;

int main() {
  // 1. A Broadwell-class server: vulnerable to Meltdown, L1TF, LazyFP, MDS.
  const CpuModel& cpu = GetCpuModel(Uarch::kBroadwell);
  std::printf("CPU: %s %s (%d cores, %.1f GHz)\n\n", VendorName(cpu.vendor),
              cpu.model_name.c_str(), cpu.cores, cpu.clock_ghz);

  // 2-3. Measure a null syscall under the Linux default mitigation set and
  // with mitigations=off. The simulated kernel pays PTI's cr3 swaps, the
  // MDS verw, retpolines, etc. exactly where Linux pays them.
  const MitigationConfig defaults = MitigationConfig::Defaults(cpu);
  const MitigationConfig off = MitigationConfig::AllOff();
  std::printf("default mitigations: %s\n\n", defaults.Describe().c_str());

  const double cycles_default = LeBench::RunKernel("getpid", cpu, defaults, /*seed=*/1);
  const double cycles_off = LeBench::RunKernel("getpid", cpu, off, /*seed=*/2);
  std::printf("getpid: %.0f cycles with default mitigations, %.0f without "
              "(%.1f%% overhead)\n",
              cycles_default, cycles_off, (cycles_default / cycles_off - 1.0) * 100.0);

  const double suite_default = LeBench::SuiteGeomean(LeBench::RunSuite(cpu, defaults, 3));
  const double suite_off = LeBench::SuiteGeomean(LeBench::RunSuite(cpu, off, 4));
  std::printf("LEBench geomean overhead: %.1f%%\n\n",
              (suite_default / suite_off - 1.0) * 100.0);

  // 4. What the overhead buys: without PTI a user process reads kernel
  // memory transiently; with PTI the kernel page simply is not there.
  const AttackSpec& meltdown = *FindAttackSpec("meltdown");
  MitigationConfig no_pti = defaults;
  no_pti.pti = false;
  const AttackResult unprotected = RunCanonicalTrial(meltdown, cpu, no_pti);
  const AttackResult protected_run = RunCanonicalTrial(meltdown, cpu, defaults);
  std::printf("Meltdown without PTI: %s (recovered %d, expected %llu)\n",
              unprotected.leaked ? "LEAKED" : "safe", unprotected.recovered,
              static_cast<unsigned long long>(unprotected.expected));
  std::printf("Meltdown with PTI:    %s\n",
              protected_run.leaked ? "LEAKED" : "safe");
  return 0;
}
