// Sweep-grid registration for the paper's figure/table drivers.
//
// Each Build*Grid function registers one cell per independent
// (CPU × config × workload) point of an experiment with the deterministic
// parallel runner (src/runner/sweep.h) instead of a serial nested loop. A
// future figure or table driver is one registration call: build a grid,
// Run() it, convert the SweepResult back to the driver's report type for
// rendering.
#ifndef SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_
#define SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_

#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/runner/sweep.h"

namespace specbench {

struct GridOptions {
  SamplerOptions sampler;
  std::vector<Uarch> cpus = AllUarches();
};

// Figure 2: one attribution cell per CPU over the LEBench suite geomean.
Sweep BuildFigure2Grid(const GridOptions& options);
// Figure 3: one browser-attribution cell per CPU over the Octane 2 score.
Sweep BuildFigure3Grid(const GridOptions& options);
// Section 4.5: one default-vs-off cell per (CPU, PARSEC kernel).
Sweep BuildSection45Grid(const GridOptions& options);

// Differential-execution oracle as a sweep: one cell per (CPU × difftest
// config), each running the oracle's own loop (RunDifftestBlock, shrinking
// off) over every seed in [seed_begin, seed_end) and reporting divergence /
// retired-instruction counts.
struct DifftestGridOptions {
  std::vector<Uarch> cpus = AllUarches();
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;  // exclusive
};
Sweep BuildDifftestGrid(const DifftestGridOptions& options);

// Software-mitigation pass overhead matrix (src/core/harden_grid.cc): one
// cell per (CPU, workload, pass) with config = the pass name, each applying
// the pass to its analyze -> harden -> analyze fixpoint and reporting the
// unmitigated ("base") and hardened cycle counts, the overhead in percent
// ("total") and the instructions the pass inserted ("added"). Cycle-exact
// and seed-free, so its bytes are identical for any --jobs.
Sweep BuildHardenGrid(const std::vector<Uarch>& cpus);

// Shared grid-name dispatcher for `spectrebench sweep` and the sweep
// service: builds and merges the named grids ("fig2", "fig3", "sec45",
// "difftest", "harden") in list order. `seed_begin`/`seed_end` only affect
// the difftest grid; the figure/section grids sample with
// kExperimentSampler. Returns false with a one-line reason for an unknown
// grid name or a name repeated in `grids` or `cpus`.
struct NamedGridOptions {
  std::vector<std::string> grids;
  std::vector<Uarch> cpus = AllUarches();
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;  // exclusive
  // Unread. perfbench's request-to-grid mapping still assigns it from
  // ServiceRequest::fast; both members go once perfbench drops that line.
  bool fast = false;
};
bool BuildNamedGrids(const NamedGridOptions& options, Sweep* out, std::string* error);

// The grid names BuildNamedGrids accepts, in registration order, joined by
// `separator`.
std::string NamedGridNames(const std::string& separator);

// Flattens an attribution report into cell metrics (segments + "total").
CellOutput CellOutputFromAttribution(const AttributionReport& report);

// Inverse conversions, for the existing renderers: pick the cells the grid
// above produced out of a sweep result.
std::vector<AttributionReport> AttributionReportsFromSweep(const SweepResult& result);
std::vector<ParsecDefaultResult> ParsecResultsFromSweep(const SweepResult& result);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_
