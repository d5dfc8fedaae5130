// Nonparametric bootstrap confidence intervals.
//
// Callers: core::quantile_effect_ladder bootstraps each rung's quantile
// difference through bootstrap_quantile_difference_ci; bootstrap_ci, the
// one-sample form, is timed by bench_micro.
//
// Replicates run on the process-wide parallel runner. Each replicate draws
// from its own counter-based RNG substream (seeded by a single draw from
// the caller's Rng), so intervals are bit-for-bit reproducible for a given
// seed at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace xp::util {
class Runner;  // replicates fan out on the util runner (see util/runner.h)
}

namespace xp::stats {

/// Percentile-bootstrap interval for a scalar statistic of one sample.
struct BootstrapInterval {
  double point = 0.0;   ///< statistic of the original sample
  double low = 0.0;
  double high = 0.0;
  double std_error = 0.0;  ///< bootstrap standard deviation
};

/// Statistic of a single sample, e.g. the mean or a quantile.
using Statistic = std::function<double(std::span<const double>)>;

/// Percentile bootstrap for a one-sample statistic. Pass `runner` to pin a
/// specific thread pool (tests); nullptr uses the process-wide runner.
BootstrapInterval bootstrap_ci(std::span<const double> sample,
                               const Statistic& statistic, Rng& rng,
                               std::size_t replicates = 1000,
                               double confidence_level = 0.95,
                               util::Runner* runner = nullptr);

/// A sample sorted once so every resample can be read in linear time.
struct RankedSample {
  std::vector<double> sorted;       ///< the values, ascending
  std::vector<std::uint32_t> rank;  ///< position in `sorted` of value i
};

/// Ranks `sample` by a stable sort of its indices by value. The values
/// must be finite (NaN has no place in an ordering) and number fewer
/// than 2^32, so every index and rank fits in 32 bits.
RankedSample rank_sample(std::span<const double> sample);

/// Percentile bootstrap for Q_q(a) - Q_q(b), the type-7 quantile
/// difference, resampling each arm independently (appropriate for A/B
/// cells). Per replicate it draws all of a's indices, then all of b's,
/// and counts their ranks instead of sorting the resample: O(n) per
/// replicate, and bit-identical to sorting each resample and reading
/// quantile_sorted. Both arms need at least two values.
BootstrapInterval bootstrap_quantile_difference_ci(
    const RankedSample& a, const RankedSample& b, double q, Rng& rng,
    std::size_t replicates = 1000, double confidence_level = 0.95,
    util::Runner* runner = nullptr);

}  // namespace xp::stats
