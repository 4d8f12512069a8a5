// Adaptive sampling: run a measurement until its 95% CI is tight enough.
//
// Mirrors the paper's methodology (§4.1): individual benchmark runs vary by a
// couple percent, but repeating each configuration until the confidence
// interval converges gives an accurate estimate of the true average.
//
// The sampler owns the seed sequence: repetition i of a measurement draws its
// run-to-run noise from `first_seed + i`, so a caller names only where the
// sequence starts.
#ifndef SPECTREBENCH_SRC_STATS_SAMPLER_H_
#define SPECTREBENCH_SRC_STATS_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/stats/summary.h"

namespace specbench {

struct SamplerOptions {
  // Minimum samples before the stopping rule is consulted.
  size_t min_samples = 5;
  // Hard cap so a noisy measurement cannot run forever.
  size_t max_samples = 200;
  // Stop when ci95_half_width / mean falls below this.
  double target_relative_ci = 0.01;
};

struct SampleResult {
  Estimate estimate;
  size_t samples = 0;
  // True if the stopping rule was met before max_samples.
  bool converged = false;
  // Count of measurements that returned NaN or +/-inf. Non-finite samples
  // are excluded from the estimate (one NaN would otherwise poison the mean
  // and make convergence impossible) but still count against max_samples.
  size_t non_finite_samples = 0;

  bool saw_non_finite() const { return non_finite_samples > 0; }
};

// One noisy sample of a measurement (a score or a cycle count), with the
// run-to-run noise drawn from `seed`.
using SampleFn = std::function<double(uint64_t seed)>;

// Calls `measure` with first_seed, first_seed + 1, ... until the 95% CI
// half-width relative to the mean drops below the target, then returns the
// mean estimate. A non-finite draw still uses up its seed.
SampleResult SampleUntilConverged(const SampleFn& measure, uint64_t first_seed,
                                  const SamplerOptions& options = SamplerOptions());

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_STATS_SAMPLER_H_
