// Welch t-tests, bootstrap, power analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/power.h"
#include "stats/rng.h"
#include "stats/ttest.h"

namespace xp::stats {
namespace {

TEST(Welch, DetectsClearDifference) {
  Rng rng(3);
  std::vector<double> a(200), b(200);
  for (auto& x : a) x = rng.normal(10.0, 1.0);
  for (auto& x : b) x = rng.normal(9.0, 1.0);
  const TTestResult t = welch_t_test(a, b);
  EXPECT_NEAR(t.estimate, 1.0, 0.3);
  EXPECT_TRUE(t.significant);
  EXPECT_LT(t.p_value, 0.001);
  EXPECT_LT(t.ci_low, 1.0);
  EXPECT_GT(t.ci_high, 1.0);
}

TEST(Welch, NoFalseCertaintyOnEqualMeans) {
  Rng rng(5);
  int significant = 0;
  for (int rep = 0; rep < 100; ++rep) {
    std::vector<double> a(50), b(50);
    for (auto& x : a) x = rng.normal(0.0, 1.0);
    for (auto& x : b) x = rng.normal(0.0, 1.0);
    significant += welch_t_test(a, b).significant;
  }
  EXPECT_LE(significant, 12);  // ~5% nominal
}

TEST(Welch, UnequalVariancesDfBetweenBounds) {
  Rng rng(7);
  std::vector<double> a(30), b(90);
  for (auto& x : a) x = rng.normal(0.0, 5.0);
  for (auto& x : b) x = rng.normal(0.0, 0.5);
  const TTestResult t = welch_t_test(a, b);
  EXPECT_GE(t.df, 28.0);  // close to the small noisy group's df
  EXPECT_LE(t.df, 118.0);
}

TEST(Welch, ThrowsOnTinySamples) {
  EXPECT_THROW(
      welch_t_test(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
      std::invalid_argument);
}

TEST(Bootstrap, TwoSampleDifference) {
  Rng rng(19);
  std::vector<double> a(150), b(150);
  for (auto& x : a) x = rng.normal(2.0, 1.0);
  for (auto& x : b) x = rng.normal(1.0, 1.0);
  const BootstrapInterval ci = bootstrap_quantile_difference_ci(
      rank_sample(a), rank_sample(b), 0.5, rng, 600);
  EXPECT_GT(ci.low, 0.3);
  EXPECT_LT(ci.high, 1.7);
}

// The quantile-difference kernel written out the slow way: per replicate,
// gather a's resample and then b's from the replicate's substream, sort
// each, and read quantile_sorted. The kernel counts ranks instead of
// sorting and must agree with this to the bit.
BootstrapInterval reference_quantile_difference_ci(std::span<const double> a,
                                                   std::span<const double> b,
                                                   double q, Rng& rng,
                                                   std::size_t replicates,
                                                   double confidence_level) {
  const std::uint64_t base = rng.next();
  const auto sorted_resample = [](std::span<const double> sample, Rng& r) {
    std::vector<double> out(sample.size());
    for (double& x : out) x = sample[r.uniform_int(sample.size())];
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<double> stats(replicates);
  for (std::size_t r = 0; r < replicates; ++r) {
    Rng rep{mix64(base ^ (0x9e3779b97f4a7c15ULL + r))};
    const std::vector<double> draw_a = sorted_resample(a, rep);
    const std::vector<double> draw_b = sorted_resample(b, rep);
    stats[r] = quantile_sorted(draw_a, q) - quantile_sorted(draw_b, q);
  }
  std::sort(stats.begin(), stats.end());
  const double alpha = 1.0 - confidence_level;
  BootstrapInterval interval;
  interval.point = quantile(a, q) - quantile(b, q);
  interval.low = quantile_sorted(stats, alpha / 2.0);
  interval.high = quantile_sorted(stats, 1.0 - alpha / 2.0);
  interval.std_error = stddev(stats);
  return interval;
}

void expect_same_bits(double expected, double actual, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << field << ": expected " << expected << ", got " << actual;
}

TEST(QuantileDifferenceKernel, MatchesSortingReferenceBitForBit) {
  struct Case {
    const char* name;
    std::size_t n_a;
    std::size_t n_b;
    int kind;  // 0 continuous, 1 heavy ties, 2 signed zeros mixed in
  };
  const Case cases[] = {
      {"n=10", 10, 10, 0},
      {"n=11", 11, 11, 0},
      {"n=257", 257, 257, 0},
      {"n=1000", 1000, 1000, 0},
      {"unequal arms", 257, 1000, 0},
      {"unequal arms, a larger", 1000, 11, 0},
      {"heavy ties", 257, 300, 1},
      // Odd sizes of arm a put its median exactly on an order statistic,
      // where a signed zero would surface if the interpolation were
      // skipped.
      {"signed zeros", 257, 1000, 2},
      {"signed zeros, tiny", 11, 10, 2},
      {"n=2", 2, 2, 0},
      {"n=3", 3, 3, 0},
      {"2 vs 3, heavy ties", 2, 3, 1},
      {"3 vs 2, signed zeros", 3, 2, 2},
  };
  const double qs[] = {0.0, 0.5, 0.9, 0.99, 1.0};
  Rng fill(29);
  const auto draw = [&](std::size_t n, int kind) {
    std::vector<double> xs(n);
    for (double& x : xs) {
      switch (kind) {
        case 0: x = fill.normal(1.0, 2.0); break;
        case 1: x = static_cast<double>(fill.uniform_int(4)); break;
        default: {
          const std::uint64_t pick = fill.uniform_int(4);
          x = pick == 0 ? 0.0 : pick == 1 ? -0.0 : pick == 2 ? 1.5 : -2.5;
        }
      }
    }
    return xs;
  };
  for (const Case& c : cases) {
    const std::vector<double> a = draw(c.n_a, c.kind);
    const std::vector<double> b = draw(c.n_b, c.kind);
    const RankedSample ranked_a = rank_sample(a);
    const RankedSample ranked_b = rank_sample(b);
    for (const double q : qs) {
      // 200 replicates pin the interval; single-replicate runs pin
      // individual replicates, since a one-value interval is that value
      // itself, signed zero included.
      const std::size_t replicate_counts[] = {200, 1, 1, 1, 1, 1, 1, 1, 1};
      for (const std::size_t replicates : replicate_counts) {
        SCOPED_TRACE(testing::Message() << c.name << ", q=" << q
                                        << ", replicates=" << replicates);
        const std::uint64_t seed = fill.next();
        Rng rng_ref(seed);
        Rng rng_kernel(seed);
        const BootstrapInterval want =
            reference_quantile_difference_ci(a, b, q, rng_ref, replicates, 0.9);
        const BootstrapInterval got = bootstrap_quantile_difference_ci(
            ranked_a, ranked_b, q, rng_kernel, replicates, 0.9);
        expect_same_bits(want.point, got.point, "point");
        expect_same_bits(want.low, got.low, "low");
        expect_same_bits(want.high, got.high, "high");
        expect_same_bits(want.std_error, got.std_error, "std_error");
        // Both consumed exactly one draw of the caller's stream.
        EXPECT_EQ(rng_ref.next(), rng_kernel.next());
      }
    }
  }
}

TEST(QuantileDifferenceKernel, RankSampleSortsStablyAndInverts) {
  const std::vector<double> xs{3.0, -1.0, 3.0, 0.0, -0.0, 2.0};
  const RankedSample ranked = rank_sample(xs);
  EXPECT_TRUE(std::is_sorted(ranked.sorted.begin(), ranked.sorted.end()));
  ASSERT_EQ(ranked.order.size(), xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ranked.sorted[k]),
              std::bit_cast<std::uint64_t>(xs[ranked.order[k]]));
  }
  // Stable: equal values keep their input order (3.0 at units 0 then 2,
  // the zeros as 0.0 at unit 3 then -0.0 at unit 4).
  const std::vector<std::uint32_t> want{1, 3, 4, 5, 0, 2};
  EXPECT_EQ(ranked.order, want);
}

TEST(QuantileDifferenceKernel, TooSmallArmThrows) {
  Rng rng(37);
  const std::vector<double> one{1.0};
  const std::vector<double> many{1.0, 2.0, 3.0};
  EXPECT_THROW(bootstrap_quantile_difference_ci(rank_sample(one),
                                                rank_sample(many), 0.5, rng),
               std::invalid_argument);
}

TEST(Power, KnownTwoSidedSampleSize) {
  // Classic: effect 0.5 sd, alpha 0.05, power 0.8, 50/50 -> n/group ~ 63.
  PowerSpec spec;
  spec.effect = 0.5;
  spec.sd = 1.0;
  const std::size_t n = required_sample_size(spec);
  EXPECT_NEAR(static_cast<double>(n), 126.0, 2.0);
}

TEST(Power, UnequalAllocationNeedsMore) {
  PowerSpec even;
  even.effect = 0.3;
  PowerSpec skewed = even;
  skewed.allocation = 0.05;
  EXPECT_GT(required_sample_size(skewed), 4 * required_sample_size(even));
}

TEST(Power, AchievedPowerMonotoneInN) {
  PowerSpec spec;
  spec.effect = 0.2;
  EXPECT_LT(achieved_power(spec, 100), achieved_power(spec, 1000));
  EXPECT_NEAR(achieved_power(spec, required_sample_size(spec)), 0.8, 0.02);
}

TEST(Power, MdeInverseOfSampleSize) {
  PowerSpec spec;
  spec.effect = 0.4;
  const std::size_t n = required_sample_size(spec);
  EXPECT_NEAR(minimum_detectable_effect(spec, n), 0.4, 0.02);
}

TEST(Power, SwitchbackIntervals) {
  // Detecting a 1-sd-of-interval effect needs ~16+ intervals at 80% power.
  const std::size_t n = required_switchback_intervals(1.0, 1.0);
  EXPECT_GE(n, 16u);
  EXPECT_LE(n, 64u);
}

TEST(Power, InvalidInputsThrow) {
  PowerSpec spec;  // effect == 0
  EXPECT_THROW(required_sample_size(spec), std::invalid_argument);
  spec.effect = 0.5;
  spec.allocation = 0.0;
  EXPECT_THROW(required_sample_size(spec), std::invalid_argument);
}

}  // namespace
}  // namespace xp::stats
