#include "src/core/sweep_grids.h"

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
                return CellOutputFromAttribution(AttributeOsMitigations(
                    cpu, "lebench",
                    [&cpu](const MitigationConfig& config) -> SampleFn {
                      return [suite = LeBench::SimulateSuite(cpu, config)](uint64_t sample_seed) {
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
                return CellOutputFromAttribution(AttributeBrowserMitigations(
                    cpu,
                    [&cpu](const JitConfig& jit, const MitigationConfig& os) -> SampleFn {
                      return [suite = Octane::SimulateSuite(cpu, jit, os)](uint64_t sample_seed) {
                        return Octane::SuiteScore(NoisySuite(suite, sample_seed));
                      };
                    },
                    sampler, seed));
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
                  uint64_t seed_def = SplitMix64Next(&stream);
                  uint64_t seed_off = SplitMix64Next(&stream);
                  const double sim_def =
                      Parsec::SimulateKernel(name, cpu, MitigationConfig::Defaults(cpu));
                  const double sim_off =
                      Parsec::SimulateKernel(name, cpu, MitigationConfig::AllOff());
                  const SampleResult def = SampleUntilConverged(
                      [&] { return Parsec::Noisy(name, sim_def, seed_def++); }, sampler);
                  const SampleResult off = SampleUntilConverged(
                      [&] { return Parsec::Noisy(name, sim_off, seed_off++); }, sampler);
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

bool BuildNamedGrids(const NamedGridOptions& options, Sweep* out, std::string* error) {
  Sweep sweep;
  GridOptions grid;
  grid.sampler = kExperimentSampler;
  grid.cpus = options.cpus;
  for (const std::string& name : options.grids) {
    if (name == "fig2") {
      sweep.Merge(BuildFigure2Grid(grid));
    } else if (name == "fig3") {
      sweep.Merge(BuildFigure3Grid(grid));
    } else if (name == "sec45") {
      sweep.Merge(BuildSection45Grid(grid));
    } else if (name == "difftest") {
      DifftestGridOptions difftest;
      difftest.cpus = options.cpus;
      difftest.seed_begin = options.seed_begin;
      difftest.seed_end = options.seed_end;
      sweep.Merge(BuildDifftestGrid(difftest));
    } else if (name == "harden") {
      sweep.Merge(BuildHardenGrid(options.cpus));
    } else {
      *error = "unknown grid: \"" + name + "\" (valid: fig2, fig3, sec45, difftest, harden)";
      return false;
    }
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

std::vector<AttributionReport> RunFigure3Octane(const SamplerOptions& options,
                                                const std::vector<Uarch>& cpus,
                                                const RunnerOptions& runner) {
  return AttributionReportsFromSweep(BuildFigure3Grid(GridOptions{options, cpus}).Run(runner));
}

std::vector<ParsecDefaultResult> RunSection45Parsec(const SamplerOptions& options,
                                                    const std::vector<Uarch>& cpus,
                                                    const RunnerOptions& runner) {
  return ParsecResultsFromSweep(BuildSection45Grid(GridOptions{options, cpus}).Run(runner));
}

}  // namespace specbench
