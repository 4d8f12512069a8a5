#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/stats/sampler.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"

namespace specbench {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroCi) {
  RunningStats s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
  EXPECT_TRUE(std::isinf(s.relative_ci95()));
}

TEST(RunningStats, IdenticalSamplesHaveZeroCi) {
  RunningStats s;
  for (int i = 0; i < 10; i++) {
    s.Add(3.0);
  }
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
  EXPECT_DOUBLE_EQ(s.relative_ci95(), 0.0);
}

TEST(RunningStats, VarianceNeverNegativeOnNearEqualLargeSamples) {
  // Regression: Welford's update `m2_ += delta * (sample - mean_)` is built
  // from rounded intermediates; under FP contraction (FMA) or fast-math the
  // accumulated m2_ can come out a tiny negative for near-equal samples of
  // large magnitude, which turned stddev()/sem() into NaN and made every
  // CI comparison silently false. m2_ is now clamped at zero — variance()
  // must be non-negative and the derived statistics finite for adversarial
  // ~1e9-magnitude inputs.
  const double base = 1e9;
  const double ulp = std::nextafter(base, 2e9) - base;
  Rng rng(99);
  for (int trial = 0; trial < 256; trial++) {
    RunningStats s;
    const int n = 3 + static_cast<int>(rng.NextBelow(10));
    for (int i = 0; i < n; i++) {
      s.Add(base + static_cast<double>(rng.NextBelow(5)) * ulp);
    }
    ASSERT_GE(s.variance(), 0.0);
    ASSERT_TRUE(std::isfinite(s.stddev()));
    ASSERT_TRUE(std::isfinite(s.sem()));
    ASSERT_TRUE(std::isfinite(s.ci95_half_width()));
    ASSERT_TRUE(std::isfinite(s.relative_ci95()));
  }
}

TEST(TCritical, KnownValues) {
  EXPECT_NEAR(TCritical95(1), 12.706, 1e-3);
  EXPECT_NEAR(TCritical95(9), 2.262, 1e-3);
  EXPECT_NEAR(TCritical95(1000), 1.962, 1e-3);
}

TEST(TCritical, MonotonicallyDecreasing) {
  for (size_t dof = 1; dof < 1500; dof++) {
    EXPECT_GE(TCritical95(dof), TCritical95(dof + 1)) << "dof " << dof;
  }
}

TEST(TCritical, ExactThroughDof60) {
  // Regression: the old table ended at dof 30 and returned 2.009 for every
  // dof in [31, 59] — below the true t(31) = 2.040, i.e. anti-conservative
  // CIs for 32-41-sample runs, so the adaptive sampler stopped too early.
  EXPECT_NEAR(TCritical95(31), 2.040, 1e-3);
  EXPECT_NEAR(TCritical95(35), 2.030, 1e-3);
  EXPECT_NEAR(TCritical95(40), 2.021, 1e-3);
  EXPECT_NEAR(TCritical95(50), 2.009, 1e-3);
  EXPECT_NEAR(TCritical95(59), 2.001, 1e-3);
  EXPECT_NEAR(TCritical95(60), 2.000, 1e-3);
}

TEST(TCritical, BucketsAreConservative) {
  // Beyond the exact table, each bucket must return at least the true
  // quantile for every dof it covers (a too-wide CI costs extra samples; a
  // too-narrow one silently breaks the §4.1 stopping rule). Spot-check each
  // bucket against its tightest true value (the quantile at its low end).
  EXPECT_GE(TCritical95(61), 1.9996);    // t(61)
  EXPECT_GE(TCritical95(119), 1.9801);   // t(119) < t(61), bucket still above
  EXPECT_GE(TCritical95(120), 1.9799);   // t(120)
  EXPECT_GE(TCritical95(999), 1.9623);   // t(999)
  EXPECT_GE(TCritical95(1000), 1.9620);  // never below t(1000)
  // And never below the normal asymptote anywhere.
  for (size_t dof = 1; dof < 5000; dof += 7) {
    EXPECT_GE(TCritical95(dof), 1.96) << "dof " << dof;
  }
}

TEST(GeometricMean, Basics) {
  EXPECT_DOUBLE_EQ(GeometricMean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(GeometricMean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
}

TEST(GeometricMean, InvariantUnderScaling) {
  const double g1 = GeometricMean({1.0, 2.0, 3.0, 4.0});
  const double g2 = GeometricMean({2.0, 4.0, 6.0, 8.0});
  EXPECT_NEAR(g2, 2.0 * g1, 1e-12);
}

TEST(RelativeOverhead, TenPercent) {
  const Estimate slow{110.0, 0.0};
  const Estimate fast{100.0, 0.0};
  const Estimate overhead = RelativeOverheadPercent(slow, fast);
  EXPECT_NEAR(overhead.value, 10.0, 1e-9);
  EXPECT_NEAR(overhead.ci95, 0.0, 1e-9);
}

TEST(RelativeOverhead, PropagatesError) {
  const Estimate slow{110.0, 1.1};   // 1% relative
  const Estimate fast{100.0, 1.0};   // 1% relative
  const Estimate overhead = RelativeOverheadPercent(slow, fast);
  // ratio err = 1.1 * sqrt(2)/100 => ~1.56 percentage points
  EXPECT_NEAR(overhead.ci95, 1.1 * std::sqrt(2.0), 0.01);
}

TEST(Sampler, ConvergesOnLowNoise) {
  Rng rng(123);
  const SampleResult result = SampleUntilConverged(
      [&](uint64_t) { return 100.0 + rng.NextGaussian() * 0.5; }, 0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.estimate.value, 100.0, 0.5);
  EXPECT_LT(result.samples, 200u);
}

TEST(Sampler, HitsMaxSamplesOnHighNoise) {
  Rng rng(77);
  SamplerOptions options;
  options.max_samples = 12;
  options.target_relative_ci = 1e-6;
  const SampleResult result = SampleUntilConverged(
      [&](uint64_t) { return 100.0 + rng.NextGaussian() * 30.0; }, 0, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.samples, 12u);
}

TEST(Sampler, RespectsMinSamples) {
  int calls = 0;
  SamplerOptions options;
  options.min_samples = 7;
  const SampleResult result = SampleUntilConverged(
      [&](uint64_t) {
        calls++;
        return 5.0;  // zero variance: converges at min_samples
      },
      0, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(calls, 7);
}

TEST(Sampler, ExcludesNonFiniteSamplesAndStillConverges) {
  // Regression: a single NaN measurement used to poison the running mean, so
  // the relative-CI stopping rule could never fire and the sampler silently
  // burned max_samples returning a NaN estimate. Non-finite draws are now
  // excluded from the statistics and surfaced via saw_non_finite().
  int calls = 0;
  const SampleResult result = SampleUntilConverged(
      [&](uint64_t) {
        calls++;
        if (calls == 2) {
          return std::numeric_limits<double>::quiet_NaN();
        }
        if (calls == 4) {
          return std::numeric_limits<double>::infinity();
        }
        return 42.0;
      },
      0);
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.saw_non_finite());
  EXPECT_EQ(result.non_finite_samples, 2u);
  EXPECT_DOUBLE_EQ(result.estimate.value, 42.0);
  EXPECT_TRUE(std::isfinite(result.estimate.ci95));
}

TEST(Sampler, AllNonFiniteTerminatesAtMaxSamples) {
  int calls = 0;
  SamplerOptions options;
  options.max_samples = 25;
  const SampleResult result = SampleUntilConverged(
      [&](uint64_t) {
        calls++;
        return std::numeric_limits<double>::quiet_NaN();
      },
      0, options);
  EXPECT_EQ(calls, 25);  // non-finite draws still count against max_samples
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.saw_non_finite());
  EXPECT_EQ(result.non_finite_samples, 25u);
  EXPECT_EQ(result.samples, 0u);  // nothing usable was accumulated
}

TEST(Sampler, DrawsOneSeedPerSampleFromTheFirst) {
  // The sampler owns the seed sequence: draw i gets first_seed + i, and a
  // non-finite draw still uses up its seed.
  std::vector<uint64_t> seeds;
  SamplerOptions options;
  options.min_samples = 3;
  const SampleResult result = SampleUntilConverged(
      [&](uint64_t seed) {
        seeds.push_back(seed);
        return seeds.size() == 2 ? std::numeric_limits<double>::quiet_NaN() : 7.0;
      },
      40, options);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.samples, 3u);
  EXPECT_EQ(seeds, (std::vector<uint64_t>{40, 41, 42, 43}));
}

TEST(Sampler, CiCoversTrueMeanUsually) {
  // Property check of the methodology: across many repetitions, the 95% CI
  // should contain the true mean roughly 95% of the time.
  Rng rng(2024);
  int covered = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; trial++) {
    SamplerOptions options;
    options.min_samples = 20;
    options.max_samples = 20;  // fixed n, CI from data
    const SampleResult r = SampleUntilConverged(
        [&](uint64_t) { return 50.0 + rng.NextGaussian() * 5.0; }, 0, options);
    if (std::fabs(r.estimate.value - 50.0) <= r.estimate.ci95) {
      covered++;
    }
  }
  EXPECT_GE(covered, trials * 85 / 100);
  EXPECT_LE(covered, trials);
}

}  // namespace
}  // namespace specbench
