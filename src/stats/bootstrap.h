// Nonparametric bootstrap confidence intervals.
//
// Caller: core::quantile_effect_ladder bootstraps each rung's quantile
// difference through bootstrap_quantile_difference_ci.
//
// The kernel is serial; parallelism lives one level up, in the pipeline's
// (estimator, metric) analysis jobs. Each replicate still draws from its
// own counter-based RNG substream (seeded by a single draw from the
// caller's Rng), so an interval is a pure function of that seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace xp::stats {

/// Percentile-bootstrap interval for a scalar statistic.
struct BootstrapInterval {
  double point = 0.0;   ///< statistic of the original sample
  double low = 0.0;
  double high = 0.0;
  double std_error = 0.0;  ///< bootstrap standard deviation
};

/// A sample sorted once so every resample can be read in linear time.
struct RankedSample {
  std::vector<double> sorted;        ///< the values, ascending
  std::vector<std::uint32_t> order;  ///< the unit at sorted position k:
                                     ///< sorted[k] == sample[order[k]]
};

/// Ranks `sample` by a stable sort of its indices by value, so equal
/// values keep their input order. The values must be finite (NaN has no
/// place in an ordering) and number fewer than 2^32, so every index fits
/// in 32 bits.
RankedSample rank_sample(std::span<const double> sample);

/// Percentile bootstrap for Q_q(a) - Q_q(b), the type-7 quantile
/// difference, resampling each arm independently (appropriate for A/B
/// cells). Per replicate it draws all of a's units, then all of b's,
/// counting the draws per unit instead of sorting the resample, and walks
/// the ranks down from the top to the two order statistics: O(n) per
/// replicate, and bit-identical to sorting each resample and reading
/// quantile_sorted. Both arms need at least two values.
BootstrapInterval bootstrap_quantile_difference_ci(
    const RankedSample& a, const RankedSample& b, double q, Rng& rng,
    std::size_t replicates = 1000, double confidence_level = 0.95);

}  // namespace xp::stats
