// Descriptive statistics over samples of doubles.
//
// These are the building blocks for every estimator in the experiment
// framework: cell means, sample variances, standard errors, and the
// quantiles used for quantile treatment effects (Section 2, "Note on
// averages").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xp::stats {

/// Arithmetic mean. Returns 0 for an empty sample.
double mean(std::span<const double> xs) noexcept;

/// Unbiased (n-1) sample variance. Returns 0 for samples of size < 2.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation (sqrt of unbiased variance).
double stddev(std::span<const double> xs) noexcept;

/// Minimum; +inf for empty input.
double min(std::span<const double> xs) noexcept;

/// Maximum; -inf for empty input.
double max(std::span<const double> xs) noexcept;

/// Linear-interpolation quantile (R type 7, the default in R/NumPy).
/// q is clamped to [0, 1]. Returns 0 for an empty sample. Copies and
/// sorts.
double quantile(std::span<const double> xs, double q);

/// Quantile over data the caller has already sorted ascending.
double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Where the type-7 quantile q of n >= 1 sorted values falls: between
/// order statistics `lo` and `hi = min(lo + 1, n - 1)`, `frac` of the way
/// from the first to the second. q is clamped to [0, 1].
struct QuantilePosition {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;

  /// The quantile given the values of its two order statistics — the one
  /// place the type-7 interpolation is written, so quantile_sorted and
  /// the bootstrap's draw-count kernel agree to the bit.
  double interpolate(double v_lo, double v_hi) const noexcept {
    return v_lo + frac * (v_hi - v_lo);
  }
};

QuantilePosition quantile_position(std::size_t n, double q) noexcept;

}  // namespace xp::stats
