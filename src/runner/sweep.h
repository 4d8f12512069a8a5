// Deterministic parallel experiment-sweep engine.
//
// The paper's methodology (§4.1) is a grid: run every (CPU × mitigation
// config × workload) cell until its 95% CI converges. The cells are
// independent, so the runner executes them on a fixed-size thread pool —
// with the guarantee that results are **bitwise identical to a serial run
// regardless of thread count or scheduling order**, because
//   (a) each cell's RNG seed is derived only from (base_seed, cell key)
//       via CellSeed(), never from execution order, and
//   (b) each cell writes only its own pre-allocated result slot, and the
//       output is emitted in registration order.
// Per-cell wall time and progress go to stderr only; the JSON/CSV emitters
// never include timing, so their bytes are reproducible.
#ifndef SPECTREBENCH_SRC_RUNNER_SWEEP_H_
#define SPECTREBENCH_SRC_RUNNER_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/stats/summary.h"

namespace specbench {

// Identity of one sweep cell. `config` is a short digest naming the
// mitigation-configuration axis (e.g. "attribution", "default-vs-off",
// "targeted"); together the three fields seed the cell via CellSeed().
struct SweepCellKey {
  std::string cpu;
  std::string config;
  std::string workload;
};

// One named quantity a cell produced (an attribution segment, a total, a
// cycle count, ...), with its 95% CI half-width.
struct CellMetric {
  std::string id;     // stable machine name, e.g. "pti", "total"
  std::string label;  // human label for renderers
  Estimate estimate;
};

// Everything a cell reports back to the runner.
struct CellOutput {
  std::vector<CellMetric> metrics;
  // Aggregate sampler health across the cell's measurements (0 = the cell
  // does not use the adaptive sampler).
  size_t samples = 0;
  bool converged = true;
  bool saw_non_finite = false;
};

// The function a cell registers: must be a pure function of `seed` (plus
// immutable captured inputs) for the determinism guarantee to hold.
using CellFn = std::function<CellOutput(uint64_t seed)>;

struct SweepCellResult {
  SweepCellKey key;
  uint64_t seed = 0;
  CellOutput output;
  // Wall-clock time of this cell. Reported on stderr; deliberately excluded
  // from the JSON/CSV emitters so output bytes are run-to-run identical.
  double wall_ms = 0.0;
};

struct RunnerOptions {
  // Worker threads; <= 0 means all cores (ThreadCountForJobs).
  int jobs = 0;
  // Base seed every cell seed is derived from.
  uint64_t base_seed = 1;
  // Per-cell progress lines ("[3/24] Zen 3/attribution/lebench 41.2 ms")
  // on stderr.
  bool progress = false;
  // Cell selection for sharded / resumed runs: when set, only cells whose
  // registration index passes are executed. Skipped slots still get their
  // key and seed filled (seeds are index-independent pure functions, so a
  // skipped cell's seed is exactly what a one-shot run would use), letting
  // the caller overlay previously-checkpointed outputs and emit a result
  // byte-identical to the unsharded run.
  std::function<bool(size_t cell_index)> should_run;
  // Completion hook for checkpointing: invoked once per *executed* cell,
  // serialized under an internal mutex (safe to append to a journal from).
  // Called on worker threads, in completion order — consumers must not
  // assume index order.
  std::function<void(size_t cell_index, const SweepCellResult& cell)> on_cell_done;
  // Shared pool for service mode: when set, cells are submitted to this
  // pool (multiplexing with other concurrent Run() calls) and Run tracks
  // its own batch's completion instead of draining the pool. When null,
  // Run owns a private pool of `jobs` workers as before.
  class ThreadPool* pool = nullptr;
};

// Geometric-mean rollup of one metric over a group of cells.
struct GroupRollup {
  std::string group;   // e.g. the CPU name
  std::string metric;  // metric id rolled up
  // Geomean of the per-cell ratios (1 + pct/100), expressed back in percent.
  double geomean_pct = 0.0;
  size_t cells = 0;
};

struct SweepResult {
  uint64_t base_seed = 0;
  std::vector<SweepCellResult> cells;  // registration order

  // Sum of per-cell wall times in milliseconds. Timing telemetry only
  // (stderr, BENCH JSON) — never part of the deterministic emitters.
  double total_wall_ms() const;

  // Per-CPU geometric-mean rollup of `metric_id` across the selected cells,
  // treating each value as an overhead percentage. Cells lacking the metric
  // (or with a ratio <= 0, for which a geomean is undefined) are skipped.
  std::vector<GroupRollup> GeomeanByCpu(const std::string& metric_id) const;

  // Deterministic emitters: fixed key order, "%.17g" doubles, no timing.
  std::string ToJson() const;
  std::string ToCsv() const;
};

class Sweep {
 public:
  // Registers one cell. Results appear in registration order.
  void Add(SweepCellKey key, CellFn run);

  // Appends all of `other`'s cells after this sweep's own.
  void Merge(Sweep other);

  // Drops every cell for which `keep` returns false (CLI cell selection).
  void Retain(const std::function<bool(const SweepCellKey&)>& keep);

  size_t size() const { return cells_.size(); }
  const SweepCellKey& key(size_t i) const { return cells_[i].key; }

  // FNV-1a digest of every cell key in registration order (plus the count).
  // Shard journals and resumable checkpoints embed it so that merging or
  // resuming against a *different* grid (changed cpus, seeds, grid list) is
  // an error instead of silently mixed results.
  uint64_t GridDigest() const;

  // Executes every cell on the pool and returns results in registration
  // order. Safe to call repeatedly (each run re-derives seeds).
  SweepResult Run(const RunnerOptions& options = RunnerOptions()) const;

 private:
  struct Cell {
    SweepCellKey key;
    CellFn run;
  };
  std::vector<Cell> cells_;
};

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_RUNNER_SWEEP_H_
