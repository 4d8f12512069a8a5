// Regenerates the paper's Figure 2: LEBench overhead with per-mitigation
// attribution, across all eight CPUs. The harness follows §4.1: every
// configuration is re-measured until its 95% CI converges, then mitigations
// are successively disabled to attribute the slowdown. Per-CPU cells run on
// the deterministic parallel runner (--jobs=N, default all cores); output is
// identical for any job count.
#include <cstdio>
#include <string>

#include "src/core/experiments.h"
#include "src/runner/parse.h"

int main(int argc, char** argv) {
  bool csv = false;
  specbench::RunnerOptions runner;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg.rfind("--jobs=", 0) == 0 &&
               !specbench::ParseJobsFlag(arg.substr(7), &runner.jobs)) {
      return 2;
    }
  }
  specbench::SamplerOptions options;
  options.min_samples = 5;
  options.max_samples = 20;
  options.target_relative_ci = 0.01;
  const auto reports = specbench::RunFigure2LeBench(options, specbench::AllUarches(), runner);
  if (csv) {
    std::printf("%s\n", specbench::RenderAttributionCsv(reports).c_str());
    return 0;
  }
  std::printf("%s\n", specbench::RenderFigure2(reports).c_str());
  std::printf("Per-CPU totals (95%% CI):\n");
  for (const auto& report : reports) {
    std::printf("  %-16s %6.1f%% +/- %.1f%%\n", report.cpu.c_str(),
                report.total_overhead_pct.value, report.total_overhead_pct.ci95);
  }
  std::printf(
      "\nPaper expectation: >30%% on Broadwell/Skylake, declining to <3%% on the\n"
      "newest parts; nearly all of it from a small number of mitigations\n"
      "(PTI, MDS buffer clearing, Spectre V2), with Spectre V1 not measurable.\n");
  return 0;
}
