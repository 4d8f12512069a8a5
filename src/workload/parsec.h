// PARSEC-style compute kernels (paper §4.5 and Figure 5).
//
// Three single-process, syscall-free kernels chosen like the paper's —
// "to get good coverage of compute-intensive benchmarks with different
// working set sizes":
//   * swaptions  — arithmetic-dominated Monte-Carlo path simulation, small
//                  working set, light store traffic;
//   * facesim    — large working set, store-then-load-heavy mesh updates
//                  (the most SSBD-sensitive mix);
//   * bodytrack  — medium working set, mixed loads/stores/branches.
//
// With the default mitigation set these show ~no overhead (no boundary
// crossings); force-enabling SSBD produces the Figure 5 slowdowns because
// their loads queue behind unresolved stores.
#ifndef SPECTREBENCH_SRC_WORKLOAD_PARSEC_H_
#define SPECTREBENCH_SRC_WORKLOAD_PARSEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/os/mitigation_config.h"

namespace specbench {

class Parsec {
 public:
  static const std::vector<std::string>& KernelNames();

  // Simulates one kernel to completion under `config`; returns total runtime
  // in cycles (lower is better). Takes no seed: the simulation is
  // deterministic.
  static double SimulateKernel(const std::string& name, const CpuModel& cpu,
                               const MitigationConfig& config);

  // The suite's noise rule: NoisyKernel (measurement.h) with a smaller
  // sigma, 0.004.
  static double Noisy(const std::string& name, double simulated, uint64_t seed);

  // One seeded measurement: Noisy(name, SimulateKernel(...), seed).
  static double RunKernel(const std::string& name, const CpuModel& cpu,
                          const MitigationConfig& config, uint64_t seed);
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_WORKLOAD_PARSEC_H_
