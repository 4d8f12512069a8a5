#include "src/stats/summary.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace specbench {

void RunningStats::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  count_++;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
  // Welford's update can leave m2_ a tiny negative value through catastrophic
  // cancellation when samples are nearly identical relative to their
  // magnitude. A negative m2_ makes stddev()/sem() NaN, and every NaN
  // comparison in the convergence check is silently false.
  if (m2_ < 0.0) {
    m2_ = 0.0;
  }
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  if (count_ < 2) {
    return 0.0;
  }
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci95_half_width() const {
  if (count_ < 2) {
    return 0.0;
  }
  return TCritical95(count_ - 1) * sem();
}

double RunningStats::relative_ci95() const {
  if (count_ < 2) {
    return std::numeric_limits<double>::infinity();
  }
  const double m = std::fabs(mean_);
  if (m == 0.0) {
    return ci95_half_width() == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return ci95_half_width() / m;
}

double TCritical95(size_t dof) {
  // Two-sided 0.975 quantiles of Student's t distribution, exact through
  // dof 60. Beyond the table each bucket returns its *lowest*-dof quantile,
  // so the bucketed value is always >= the true quantile: a too-wide CI only
  // costs extra samples, while a too-narrow one (the old table returned
  // 2.009 for every dof in [31, 59], below t(31) = 2.040) stops the
  // adaptive sampler before the error target is actually met.
  static const double kTable[] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,  // dof 0-9
      2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,  // 10-19
      2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,  // 20-29
      2.042,  2.040,  2.037, 2.035, 2.032, 2.030, 2.028, 2.026, 2.024, 2.023,  // 30-39
      2.021,  2.020,  2.018, 2.017, 2.015, 2.014, 2.013, 2.012, 2.011, 2.010,  // 40-49
      2.009,  2.008,  2.007, 2.006, 2.005, 2.004, 2.003, 2.002, 2.002, 2.001,  // 50-59
      2.000,
  };
  if (dof == 0) {
    return 0.0;
  }
  if (dof < sizeof(kTable) / sizeof(kTable[0])) {
    return kTable[dof];
  }
  if (dof < 120) {
    return 2.000;  // t(60), an upper bound on t(dof) for dof in (60, 120)
  }
  if (dof < 1000) {
    return 1.980;  // t(120)
  }
  return 1.962;  // t(1000); within 0.1% of the 1.960 asymptote, never below it
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (double v : values) {
    SPECBENCH_CHECK_MSG(v > 0.0, "GeometricMean requires strictly positive values");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Estimate RelativeOverheadPercent(const Estimate& slow, const Estimate& fast) {
  SPECBENCH_CHECK(fast.value > 0.0);
  const double ratio = slow.value / fast.value;
  // First-order error propagation for a quotient.
  const double rel_err_slow = slow.value != 0.0 ? slow.ci95 / slow.value : 0.0;
  const double rel_err_fast = fast.ci95 / fast.value;
  const double ratio_err = ratio * std::sqrt(rel_err_slow * rel_err_slow +
                                             rel_err_fast * rel_err_fast);
  return Estimate{(ratio - 1.0) * 100.0, ratio_err * 100.0};
}

}  // namespace specbench
