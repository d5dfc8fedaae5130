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
/// q must be in [0, 1]. Returns 0 for an empty sample. Copies and sorts.
double quantile(std::span<const double> xs, double q);

/// Quantile over data the caller has already sorted ascending.
double quantile_sorted(std::span<const double> sorted, double q) noexcept;

}  // namespace xp::stats
