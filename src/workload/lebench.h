// LEBench-style OS microbenchmark suite (paper §4.2, Figure 2).
//
// Fourteen kernels, each stressing one core OS operation through the simulated
// kernel's full syscall path — so every configured mitigation (PTI cr3
// swaps, verw, retpolines/IBRS, IBPB + RSB stuffing on context switch,
// lfence-after-swapgs, index masking) is paid exactly where Linux pays it.
// The suite score is the geometric mean of per-op cycle costs, matching the
// paper's aggregation.
#ifndef SPECTREBENCH_SRC_WORKLOAD_LEBENCH_H_
#define SPECTREBENCH_SRC_WORKLOAD_LEBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/os/mitigation_config.h"
#include "src/uarch/cycle_attribution.h"

namespace specbench {

class LeBench {
 public:
  // The kernels in the suite, in reporting order.
  static const std::vector<std::string>& KernelNames();

  // Simulates one named kernel on a fresh simulated kernel with `config` and
  // returns average cycles per operation (lower is better). Takes no seed:
  // the simulation is deterministic. If `attribution` is non-null it is
  // reset, attached as the machine's cycle accountant for the run, and left
  // holding the measurement window (the kernels bracket the timed loop with
  // lfence+rdtsc, so WindowTotalCycles() is exactly t1 - t0).
  static double SimulateKernel(const std::string& name, const CpuModel& cpu,
                               const MitigationConfig& config,
                               CycleAttribution* attribution = nullptr);

  // Simulates the whole suite; returns kernel -> cycles/op.
  static std::map<std::string, double> SimulateSuite(const CpuModel& cpu,
                                                     const MitigationConfig& config);

  // One seeded measurement: NoisyKernel(name, SimulateKernel(...), seed)
  // (measurement.h).
  static double RunKernel(const std::string& name, const CpuModel& cpu,
                          const MitigationConfig& config, uint64_t seed,
                          CycleAttribution* attribution = nullptr);

  // One seeded measurement of the whole suite: NoisySuite(SimulateSuite(...)).
  static std::map<std::string, double> RunSuite(const CpuModel& cpu,
                                                const MitigationConfig& config, uint64_t seed);

  // Geometric mean of per-op costs over the suite (the Figure 2 metric).
  static double SuiteGeomean(const std::map<std::string, double>& results);
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_LEBENCH_H_
