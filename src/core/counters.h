// First-class per-mitigation cycle counters, read from the cycle accountant.
//
// The paper infers each mitigation's cost by difference-of-runs (§4.1,
// src/core/attribution.h). The decomposed machine can do better: every
// cycle the simulator spends is charged to a CauseTag in the accountant, so
// one run under the default configuration yields the whole breakdown. This
// module packages that as `CounterBreakdown` rows for the `spectrebench
// counters` subcommand (byte-stable JSON, golden-tested) and for the
// agreement test that cross-checks the accountant's totals against the
// difference-of-runs estimate on the Figure 2/3 grids (docs/uarch.md
// discusses where and why the two methods diverge).
#ifndef SPECTREBENCH_SRC_CORE_COUNTERS_H_
#define SPECTREBENCH_SRC_CORE_COUNTERS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cpu/cpu_model.h"
#include "src/jit/jit.h"
#include "src/os/mitigation_config.h"
#include "src/uarch/cycle_attribution.h"

namespace specbench {

// One (cpu, workload kernel) cell of per-cause cycle counters. Cycle fields
// cover the workload's lfence+rdtsc measurement window; event counts cover
// the whole run (they are diagnostics, not part of the accounting identity).
struct CounterBreakdown {
  std::string cpu;
  std::string workload;  // "lebench:<kernel>" or "octane:<kernel>"
  uint64_t window_cycles = 0;
  std::array<uint64_t, kNumCauseTags> cause_cycles{};
  uint64_t retired = 0;
  uint64_t episodes = 0;
  uint64_t cache_fills = 0;
  uint64_t fill_buffer_touches = 0;
  uint64_t tlb_flushes = 0;
  uint64_t store_buffer_drains = 0;

  uint64_t Cause(CauseTag tag) const {
    return cause_cycles[static_cast<size_t>(tag)];
  }
  // Cycles not charged to any mitigation (CauseTag::kNone).
  uint64_t baseline_cycles() const { return Cause(CauseTag::kNone); }

  bool operator==(const CounterBreakdown&) const = default;
};

// Runs one LEBench / Octane kernel with a CycleAttribution accountant attached and
// folds the window into a CounterBreakdown. Deterministic: the measurement
// noise model only perturbs the workload's returned score, never the counts.
CounterBreakdown MeasureLeBenchCounters(const CpuModel& cpu, const MitigationConfig& config,
                                        const std::string& kernel);
CounterBreakdown MeasureOctaneCounters(const CpuModel& cpu, const JitConfig& jit_config,
                                       const MitigationConfig& os_config,
                                       const std::string& kernel);

// Renders rows as byte-stable JSON: fixed key order, every CauseTag in enum
// order, no timestamps / hostnames / durations (the golden-file test pins
// the exact bytes).
std::string RenderCountersJson(const std::vector<CounterBreakdown>& rows);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_COUNTERS_H_
