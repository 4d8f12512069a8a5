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

// The sampler budget behind the CLI's --fast: fast=true trades confidence
// (3-6 samples, 3% CI target) for a quick run; fast=false is the default
// 5-20 samples at a 1% CI target.
SamplerOptions SamplerForFast(bool fast);

// Shared grid-name dispatcher for `spectrebench sweep` and the sweep
// service: builds and merges the named grids ("fig2", "fig3", "sec45",
// "difftest") in list order. `seed_begin`/`seed_end` only affect the
// difftest grid; `fast` (the SamplerForFast budget) only the
// figure/section grids. Returns false with a one-line reason for an unknown
// grid name.
struct NamedGridOptions {
  std::vector<std::string> grids;
  std::vector<Uarch> cpus = AllUarches();
  uint64_t seed_begin = 0;
  uint64_t seed_end = 100;  // exclusive
  bool fast = false;
};
bool BuildNamedGrids(const NamedGridOptions& options, Sweep* out, std::string* error);

// Flattens an attribution report into cell metrics (segments + "total").
CellOutput CellOutputFromAttribution(const AttributionReport& report);

// Inverse conversions, for the existing renderers: pick the cells the grid
// above produced out of a sweep result.
std::vector<AttributionReport> AttributionReportsFromSweep(const SweepResult& result);
std::vector<ParsecDefaultResult> ParsecResultsFromSweep(const SweepResult& result);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_CORE_SWEEP_GRIDS_H_
