// Welch t-tests, bootstrap, power analysis.
#include <gtest/gtest.h>

#include <cmath>

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

TEST(Bootstrap, MeanCiCoversSampleMean) {
  Rng rng(13);
  std::vector<double> xs(100);
  for (auto& x : xs) x = rng.exponential(0.5);
  const BootstrapInterval ci = bootstrap_ci(
      xs, [](std::span<const double> s) { return mean(s); }, rng, 800);
  EXPECT_GT(ci.point, ci.low);
  EXPECT_LT(ci.point, ci.high);
  EXPECT_GT(ci.std_error, 0.0);
}

TEST(Bootstrap, QuantileStatistic) {
  Rng rng(17);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  const BootstrapInterval ci = bootstrap_ci(
      xs, [](std::span<const double> s) { return quantile(s, 0.9); }, rng,
      500);
  EXPECT_NEAR(ci.point, 1.2816, 0.25);
  EXPECT_LT(ci.low, ci.point);
}

TEST(Bootstrap, TwoSampleDifference) {
  Rng rng(19);
  std::vector<double> a(150), b(150);
  for (auto& x : a) x = rng.normal(2.0, 1.0);
  for (auto& x : b) x = rng.normal(1.0, 1.0);
  const BootstrapInterval ci = bootstrap_two_sample_ci(
      a, b,
      [](std::span<const double> s, std::span<const double> t) {
        return mean(s) - mean(t);
      },
      rng, 600);
  EXPECT_GT(ci.low, 0.3);
  EXPECT_LT(ci.high, 1.7);
}

TEST(Bootstrap, EmptySampleThrows) {
  Rng rng(23);
  EXPECT_THROW(bootstrap_ci({}, [](auto) { return 0.0; }, rng),
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
