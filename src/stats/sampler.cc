#include "src/stats/sampler.h"

#include <cmath>

#include "src/util/check.h"

namespace specbench {

SampleResult SampleUntilConverged(const SampleFn& measure, uint64_t first_seed,
                                  const SamplerOptions& options) {
  SPECBENCH_CHECK(options.min_samples >= 2);
  SPECBENCH_CHECK(options.max_samples >= options.min_samples);

  RunningStats stats;
  SampleResult result;
  // Non-finite draws count against max_samples so a measurement that always
  // returns NaN still terminates; they are excluded from the stats so one bad
  // draw cannot poison the mean and silently disable convergence.
  size_t draws = 0;
  while (draws < options.max_samples) {
    const double sample = measure(first_seed + draws);
    draws++;
    if (!std::isfinite(sample)) {
      result.non_finite_samples++;
      continue;
    }
    stats.Add(sample);
    if (stats.count() >= options.min_samples &&
        stats.relative_ci95() <= options.target_relative_ci) {
      result.converged = true;
      break;
    }
  }
  result.estimate = Estimate{stats.mean(), stats.ci95_half_width()};
  result.samples = stats.count();
  return result;
}

}  // namespace specbench
