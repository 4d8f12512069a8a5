// Regenerates §4.5: PARSEC kernels under the default mitigation set —
// boundary-free compute should be essentially unaffected. (CPU × kernel)
// cells run on the deterministic parallel runner (--jobs=N).
#include <cstdio>
#include <string>

#include "src/core/experiments.h"
#include "src/runner/parse.h"

int main(int argc, char** argv) {
  specbench::RunnerOptions runner;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0 && !specbench::ParseJobsFlag(arg.substr(7), &runner.jobs)) {
      return 2;
    }
  }
  specbench::SamplerOptions options;
  options.min_samples = 5;
  options.max_samples = 16;
  options.target_relative_ci = 0.005;
  const auto results = specbench::RunSection45Parsec(options, specbench::AllUarches(), runner);
  std::printf("%s\n", specbench::RenderSection45(results).c_str());
  return 0;
}
