// Two-sample comparison: Welch's t-test (unequal variances, the default
// for A/B test readouts).
#pragma once

#include <span>

namespace xp::stats {

/// Result of a two-sample mean-difference test.
struct TTestResult {
  double estimate = 0.0;    ///< mean(treatment) - mean(control)
  double std_error = 0.0;
  double t_stat = 0.0;
  double df = 0.0;          ///< Welch-Satterthwaite degrees of freedom
  double p_value = 1.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
  bool significant = false; ///< p < (1 - confidence_level)
};

/// Welch's unequal-variance two-sample t-test for mean(a) - mean(b).
TTestResult welch_t_test(std::span<const double> a, std::span<const double> b,
                         double confidence_level = 0.95);

}  // namespace xp::stats
