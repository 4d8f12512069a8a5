// Regenerates the paper's Figure 3: Octane 2 slowdown split into JavaScript
// (index masking / object mitigations / other JS) and OS (SSBD / other)
// mitigations, per CPU. Per-CPU cells run on the deterministic parallel
// runner (--jobs=N, default all cores); output is identical for any count.
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
  const auto reports = specbench::RunFigure3Octane(options, specbench::AllUarches(), runner);
  if (csv) {
    std::printf("%s\n", specbench::RenderAttributionCsv(reports).c_str());
    return 0;
  }
  std::printf("%s\n", specbench::RenderFigure3(reports).c_str());
  std::printf("Per-CPU totals (95%% CI):\n");
  for (const auto& report : reports) {
    std::printf("  %-16s %6.1f%% +/- %.1f%%\n", report.cpu.c_str(),
                report.total_overhead_pct.value, report.total_overhead_pct.ci95);
  }
  std::printf(
      "\nPaper expectation: 15-25%% on every CPU, roughly half from JS-level\n"
      "Spectre V1 mitigations (~4%% index masking, ~6%% object mitigations) and\n"
      "a visible SSBD slice because the browser is a seccomp process.\n");
  return 0;
}
