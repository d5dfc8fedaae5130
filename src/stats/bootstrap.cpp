#include "stats/bootstrap.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/descriptive.h"

namespace xp::stats {

namespace {

/// Quantile of one resample of `arm`, read without building it: count how
/// often each unit is drawn, then walk the ranks (`order`) to the two
/// order statistics. Position p of the sorted resample holds sorted[k] for
/// the first k whose prefix count exceeds p — the same doubles a sort of
/// the gathered resample puts there. Only equal values can trade places,
/// and among finite doubles only +0.0 and -0.0 differ in bits while
/// comparing equal; the interpolation returns +0.0 for either zero at lo
/// or hi.
///
/// The walk runs down from the top rank, keeping the suffix sum s(k+1) of
/// the counts above k: prefix(k) > p is n - s(k+1) > p, exact in integers.
/// It visits n - lo ranks, so p99 walks 1% of them and the median half.
///
/// Pinned to a cache-line boundary: this loop is nearly all of the
/// quantile ladder's time, and the pin keeps its placement, and so its
/// speed, from moving with the size of unrelated code linked ahead of it.
[[gnu::aligned(64)]] double resampled_quantile(const RankedSample& arm,
                                               const QuantilePosition& at,
                                               Rng& rng,
                                               std::span<std::uint32_t> counts) {
  const std::size_t n = arm.sorted.size();
  std::fill_n(counts.begin(), n, 0u);
  for (std::size_t d = 0; d < n; ++d) ++counts[rng.uniform_int(n)];
  const auto count_at = [&](std::size_t k) { return counts[arm.order[k]]; };
  // Step below k while prefix(k - 1) > p still holds, i.e. while
  // s(k) = above + count_at(k) < n - p. At k = 0, s(0) = n stops it.
  std::size_t k = n - 1;
  std::size_t above = 0;  // s(k + 1)
  const auto descend = [&](std::size_t p) {
    while (above + count_at(k) < n - p) above += count_at(k--);
  };
  descend(at.hi);
  const double v_hi = arm.sorted[k];
  descend(at.lo);
  return at.interpolate(arm.sorted[k], v_hi);
}

/// Independent substream for replicate `r`: counter-based (mix64 of a base
/// drawn once from the caller's stream), so each replicate's draws depend
/// only on the seed and r, never on what the other replicates drew.
Rng replicate_rng(std::uint64_t base, std::size_t r) {
  return Rng{mix64(base ^ (0x9e3779b97f4a7c15ULL + r))};
}

BootstrapInterval interval_from_replicates(double point,
                                           std::vector<double>& replicates,
                                           double confidence_level) {
  std::sort(replicates.begin(), replicates.end());
  const double alpha = 1.0 - confidence_level;
  BootstrapInterval interval;
  interval.point = point;
  interval.low = quantile_sorted(replicates, alpha / 2.0);
  interval.high = quantile_sorted(replicates, 1.0 - alpha / 2.0);
  interval.std_error = stddev(replicates);
  return interval;
}

}  // namespace

RankedSample rank_sample(std::span<const double> sample) {
  if (sample.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("rank_sample: 2^32 or more values");
  }
  std::vector<std::uint32_t> order(sample.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t i, std::uint32_t j) {
                     return sample[i] < sample[j];
                   });
  RankedSample ranked;
  ranked.sorted.resize(sample.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    ranked.sorted[k] = sample[order[k]];
  }
  ranked.order = std::move(order);
  return ranked;
}

BootstrapInterval bootstrap_quantile_difference_ci(
    const RankedSample& a, const RankedSample& b, double q, Rng& rng,
    std::size_t replicates, double confidence_level) {
  if (a.sorted.size() < 2 || b.sorted.size() < 2) {
    throw std::invalid_argument(
        "bootstrap_quantile_difference_ci: need >= 2 values per arm");
  }
  const QuantilePosition at_a = quantile_position(a.sorted.size(), q);
  const QuantilePosition at_b = quantile_position(b.sorted.size(), q);
  const std::uint64_t base = rng.next();
  std::vector<double> stats(replicates);
  // resampled_quantile zero-fills its counts, so one buffer serves every
  // replicate and both arms.
  std::vector<std::uint32_t> counts(
      std::max(a.sorted.size(), b.sorted.size()));
  for (std::size_t r = 0; r < replicates; ++r) {
    Rng rep_rng = replicate_rng(base, r);
    const double q_a = resampled_quantile(a, at_a, rep_rng, counts);
    stats[r] = q_a - resampled_quantile(b, at_b, rep_rng, counts);
  }
  const double point =
      quantile_sorted(a.sorted, q) - quantile_sorted(b.sorted, q);
  return interval_from_replicates(point, stats, confidence_level);
}

}  // namespace xp::stats
