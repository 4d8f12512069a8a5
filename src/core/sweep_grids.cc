#include "src/core/sweep_grids.h"

#include <algorithm>
#include <utility>

#include "src/difftest/difftest.h"
#include "src/util/rng.h"
#include "src/workload/lebench.h"
#include "src/workload/measurement.h"
#include "src/workload/octane.h"
#include "src/workload/parsec.h"

namespace specbench {

namespace {

// Seeds per oracle block in a difftest grid cell: bounds the programs a cell
// holds (~15 KiB each) for any window; 500 seeds build only two machines.
constexpr uint64_t kGridBlockSeeds = 256;

// The first item that appears earlier in `items` too, or nullptr.
template <typename T>
const T* FirstRepeat(const std::vector<T>& items) {
  for (auto it = items.begin(); it != items.end(); ++it) {
    if (std::find(items.begin(), it, *it) != it) {
      return &*it;
    }
  }
  return nullptr;
}

// One grid `spectrebench sweep --grids` and the sweep service can name.
struct NamedGrid {
  const char* name;
  Sweep (*build)(const NamedGridOptions& options);
};

const std::vector<NamedGrid>& NamedGrids() {
  using Options = NamedGridOptions;
  static const std::vector<NamedGrid> grids = {
      {"fig2", [](const Options& o) { return BuildFigure2Grid({kExperimentSampler, o.cpus}); }},
      {"fig3", [](const Options& o) { return BuildFigure3Grid({kExperimentSampler, o.cpus}); }},
      {"sec45", [](const Options& o) { return BuildSection45Grid({kExperimentSampler, o.cpus}); }},
      {"difftest",
       [](const Options& o) { return BuildDifftestGrid({o.cpus, o.seed_begin, o.seed_end}); }},
      {"harden", [](const Options& o) { return BuildHardenGrid(o.cpus); }},
  };
  return grids;
}

}  // namespace

CellOutput CellOutputFromAttribution(const AttributionReport& report) {
  CellOutput out;
  for (const AttributionSegment& segment : report.segments) {
    out.metrics.push_back(CellMetric{segment.id, segment.label, segment.overhead_pct});
  }
  out.metrics.push_back(CellMetric{"total", "Total", report.total_overhead_pct});
  out.samples = report.total_samples;
  out.converged = report.converged;
  out.saw_non_finite = report.saw_non_finite;
  return out;
}

Sweep BuildFigure2Grid(const GridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    sweep.Add(SweepCellKey{UarchName(u), "attribution", "lebench"},
              [u, sampler = options.sampler](uint64_t seed) {
                const CpuModel& cpu = GetCpuModel(u);
                return CellOutputFromAttribution(AttributeMitigations(
                    cpu, "lebench", OsMitigationKnobs(),
                    [&cpu](const JitConfig&, const MitigationConfig& os) -> SampleFn {
                      return [suite = LeBench::SimulateSuite(cpu, os)](uint64_t sample_seed) {
                        return LeBench::SuiteGeomean(NoisySuite(suite, sample_seed));
                      };
                    },
                    /*lower_is_better=*/true, sampler, seed));
              });
  }
  return sweep;
}

Sweep BuildFigure3Grid(const GridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    sweep.Add(SweepCellKey{UarchName(u), "attribution", "octane2"},
              [u, sampler = options.sampler](uint64_t seed) {
                const CpuModel& cpu = GetCpuModel(u);
                return CellOutputFromAttribution(AttributeMitigations(
                    cpu, "octane2", BrowserMitigationKnobs(),
                    [&cpu](const JitConfig& jit, const MitigationConfig& os) -> SampleFn {
                      return [suite = Octane::SimulateSuite(cpu, jit, os)](uint64_t sample_seed) {
                        return Octane::SuiteScore(NoisySuite(suite, sample_seed));
                      };
                    },
                    /*lower_is_better=*/false, sampler, seed));
              });
  }
  return sweep;
}

Sweep BuildSection45Grid(const GridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    for (const std::string& name : Parsec::KernelNames()) {
      sweep.Add(SweepCellKey{UarchName(u), "default-vs-off", name},
                [u, name, sampler = options.sampler](uint64_t seed) {
                  const CpuModel& cpu = GetCpuModel(u);
                  uint64_t stream = seed;
                  const double sim_def =
                      Parsec::SimulateKernel(name, cpu, MitigationConfig::Defaults(cpu));
                  const double sim_off =
                      Parsec::SimulateKernel(name, cpu, MitigationConfig::AllOff());
                  const SampleResult def = SampleUntilConverged(
                      [&](uint64_t s) { return Parsec::Noisy(name, sim_def, s); },
                      SplitMix64Next(&stream), sampler);
                  const SampleResult off = SampleUntilConverged(
                      [&](uint64_t s) { return Parsec::Noisy(name, sim_off, s); },
                      SplitMix64Next(&stream), sampler);
                  CellOutput out;
                  out.metrics.push_back(
                      CellMetric{"total", "Default-mitigation overhead",
                                 RelativeOverheadPercent(def.estimate, off.estimate)});
                  out.samples = def.samples + off.samples;
                  out.converged = def.converged && off.converged;
                  out.saw_non_finite = def.saw_non_finite() || off.saw_non_finite();
                  return out;
                });
    }
  }
  return sweep;
}

std::vector<AttributionReport> AttributionReportsFromSweep(const SweepResult& result) {
  std::vector<AttributionReport> reports;
  for (const SweepCellResult& cell : result.cells) {
    if (cell.key.config != "attribution") {
      continue;
    }
    AttributionReport report;
    report.cpu = cell.key.cpu;
    report.workload = cell.key.workload;
    for (const CellMetric& metric : cell.output.metrics) {
      if (metric.id == "total") {
        report.total_overhead_pct = metric.estimate;
      } else {
        report.segments.push_back(AttributionSegment{metric.id, metric.label, metric.estimate});
      }
    }
    report.total_samples = cell.output.samples;
    report.converged = cell.output.converged;
    report.saw_non_finite = cell.output.saw_non_finite;
    reports.push_back(std::move(report));
  }
  return reports;
}

std::vector<ParsecDefaultResult> ParsecResultsFromSweep(const SweepResult& result) {
  std::vector<ParsecDefaultResult> results;
  for (const SweepCellResult& cell : result.cells) {
    if (cell.key.config != "default-vs-off") {
      continue;
    }
    ParsecDefaultResult r;
    r.cpu = cell.key.cpu;
    r.kernel = cell.key.workload;
    for (const CellMetric& metric : cell.output.metrics) {
      if (metric.id == "total") {
        r.overhead_pct = metric.estimate;
      }
    }
    results.push_back(std::move(r));
  }
  return results;
}

Sweep BuildDifftestGrid(const DifftestGridOptions& options) {
  Sweep sweep;
  for (Uarch u : options.cpus) {
    for (const DiffConfig& config : DefaultDiffConfigs()) {
      sweep.Add(
          SweepCellKey{UarchName(u), config.name, "difftest"},
          [u, config, begin = options.seed_begin, end = options.seed_end](uint64_t) {
            // The oracle seeds are the cell's content, not sampling noise:
            // the cell ignores the runner-derived seed so its output bytes
            // depend only on (cpus, configs, seed window) — identical for
            // any --jobs value.
            DifftestOptions oracle;
            oracle.cpus = {u};
            oracle.configs = {config};
            oracle.shrink = false;
            uint64_t divergences = 0;
            uint64_t retired = 0;
            for (uint64_t first = begin; first < end;) {
              const uint64_t last = first + std::min(kGridBlockSeeds, end - first);
              const DifftestReport report = RunDifftestBlock(oracle, first, last);
              divergences += report.divergences.size();
              retired += report.retired_instructions;
              first = last;
            }
            CellOutput out;
            out.metrics.push_back(
                CellMetric{"divergences", "Oracle divergences",
                           Estimate{static_cast<double>(divergences), 0.0}});
            out.metrics.push_back(CellMetric{
                "retired", "Instructions retired", Estimate{static_cast<double>(retired), 0.0}});
            out.samples = static_cast<size_t>(end - begin);
            return out;
          });
    }
  }
  return sweep;
}

std::string NamedGridNames(const std::string& separator) {
  std::string names;
  for (const NamedGrid& grid : NamedGrids()) {
    names += (names.empty() ? "" : separator) + grid.name;
  }
  return names;
}

bool BuildNamedGrids(const NamedGridOptions& options, Sweep* out, std::string* error) {
  // A repeated name would add the same cells, with the same keys and
  // seeds, twice.
  if (const Uarch* cpu = FirstRepeat(options.cpus)) {
    *error = std::string("repeated CPU model: \"") + UarchName(*cpu) + "\"";
    return false;
  }
  if (const std::string* grid = FirstRepeat(options.grids)) {
    *error = "repeated grid: \"" + *grid + "\"";
    return false;
  }
  const std::vector<NamedGrid>& grids = NamedGrids();
  Sweep sweep;
  for (const std::string& name : options.grids) {
    const auto it = std::find_if(grids.begin(), grids.end(),
                                 [&name](const NamedGrid& grid) { return name == grid.name; });
    if (it == grids.end()) {
      *error = "unknown grid: \"" + name + "\" (valid: " + NamedGridNames(", ") + ")";
      return false;
    }
    sweep.Merge(it->build(options));
  }
  *out = std::move(sweep);
  return true;
}

// --- Runner-backed experiment drivers (declared in experiments.h) -----------

std::vector<AttributionReport> RunFigure2LeBench(const SamplerOptions& options,
                                                 const std::vector<Uarch>& cpus,
                                                 const RunnerOptions& runner) {
  return AttributionReportsFromSweep(BuildFigure2Grid(GridOptions{options, cpus}).Run(runner));
}

std::vector<AttributionReport> RunFigure3Octane(const std::vector<Uarch>& cpus,
                                                const RunnerOptions& runner) {
  return AttributionReportsFromSweep(
      BuildFigure3Grid(GridOptions{kExperimentSampler, cpus}).Run(runner));
}

std::vector<ParsecDefaultResult> RunSection45Parsec(const std::vector<Uarch>& cpus,
                                                    const RunnerOptions& runner) {
  return ParsecResultsFromSweep(
      BuildSection45Grid(GridOptions{kExperimentSampler, cpus}).Run(runner));
}

}  // namespace specbench
