#include "stats/bootstrap.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/runner.h"
#include "stats/descriptive.h"

namespace xp::stats {

namespace {

std::vector<double> resample(std::span<const double> sample, Rng& rng) {
  std::vector<double> out(sample.size());
  const std::size_t n = sample.size();
  // Indices are drawn a stack-chunk at a time (fill_uniform_int preserves
  // the one-at-a-time draw order exactly), so the generator recurrence
  // runs back to back and the gather loop is free of it — the interleaved
  // form re-entered the generator between every cache-missing gather.
  std::uint32_t idx[256];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t m = std::min(sizeof(idx) / sizeof(idx[0]), n - done);
    rng.fill_uniform_int(n, {idx, m});
    for (std::size_t j = 0; j < m; ++j) out[done + j] = sample[idx[j]];
    done += m;
  }
  return out;
}

/// Independent substream for replicate `r`: counter-based (mix64 of a base
/// drawn once from the caller's stream), so replicates can run on any
/// thread in any order and the interval is still bit-for-bit reproducible.
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

BootstrapInterval bootstrap_ci(std::span<const double> sample,
                               const Statistic& statistic, Rng& rng,
                               std::size_t replicates,
                               double confidence_level, util::Runner* runner) {
  if (sample.empty()) throw std::invalid_argument("bootstrap_ci: empty sample");
  const std::uint64_t base = rng.next();
  std::vector<double> stats(replicates);
  util::Runner& pool = runner ? *runner : util::global_runner();
  pool.parallel_for(replicates, [&](std::size_t r) {
    Rng rep_rng = replicate_rng(base, r);
    stats[r] = statistic(resample(sample, rep_rng));
  });
  return interval_from_replicates(statistic(sample), stats, confidence_level);
}

BootstrapInterval bootstrap_two_sample_ci(std::span<const double> a,
                                          std::span<const double> b,
                                          const TwoSampleStatistic& statistic,
                                          Rng& rng, std::size_t replicates,
                                          double confidence_level,
                                          util::Runner* runner) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("bootstrap_two_sample_ci: empty sample");
  }
  const std::uint64_t base = rng.next();
  std::vector<double> stats(replicates);
  util::Runner& pool = runner ? *runner : util::global_runner();
  pool.parallel_for(replicates, [&](std::size_t r) {
    Rng rep_rng = replicate_rng(base, r);
    const std::vector<double> draw_a = resample(a, rep_rng);
    const std::vector<double> draw_b = resample(b, rep_rng);
    stats[r] = statistic(draw_a, draw_b);
  });
  return interval_from_replicates(statistic(a, b), stats, confidence_level);
}

}  // namespace xp::stats
