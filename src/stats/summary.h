// Statistical summaries used by the measurement methodology (paper §4.1).
//
// The paper: "We adopted a methodology of running each benchmark
// configuration many times while tracking the average and 95%-confidence
// interval, stopping once the error was small enough." RunningStats tracks
// mean/variance incrementally (Welford) and exposes a Student-t 95% CI.
#ifndef SPECTREBENCH_SRC_STATS_SUMMARY_H_
#define SPECTREBENCH_SRC_STATS_SUMMARY_H_

#include <cstddef>
#include <vector>

namespace specbench {

// Incremental mean / variance / confidence-interval tracker.
class RunningStats {
 public:
  void Add(double sample);

  size_t count() const { return count_; }
  double mean() const;
  // Unbiased sample variance; zero for fewer than two samples.
  double variance() const;
  double stddev() const;
  // Standard error of the mean.
  double sem() const;
  // Half-width of the 95% confidence interval around the mean (Student-t).
  // Zero for fewer than two samples.
  double ci95_half_width() const;
  // Relative CI half width: ci95_half_width / |mean|; infinity if mean is 0
  // and fewer than 2 samples were seen.
  double relative_ci95() const;

  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Two-sided 95% Student-t critical value for `dof` degrees of freedom.
// Exact table through dof 60, then conservative buckets (each bucket returns
// the quantile of its lowest dof, so the result is never below the true
// critical value and CIs never come out anti-conservatively narrow).
double TCritical95(size_t dof);

// Geometric mean of strictly positive values; returns 0 for empty input.
// LEBench scores are aggregated this way, as in the paper (§4.2).
double GeometricMean(const std::vector<double>& values);

// A measured quantity with its 95% CI half-width.
struct Estimate {
  double value = 0.0;
  double ci95 = 0.0;
};

// Relative overhead in percent of `slow` with respect to `fast`, with a
// first-order error propagation of the two CIs:
//   overhead% = (slow/fast - 1) * 100.
Estimate RelativeOverheadPercent(const Estimate& slow, const Estimate& fast);

}  // namespace specbench

#endif  // SPECTREBENCH_SRC_STATS_SUMMARY_H_
