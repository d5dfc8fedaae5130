#include "core/quantile_effects.h"

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace xp::core {
namespace {

std::vector<Observation> shifted_world(double shift, double tail_shift,
                                       std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  for (int i = 0; i < 3000; ++i) {
    Observation obs;
    obs.unit = i;
    obs.treated = i % 2 == 0;
    double value = rng.lognormal(3.0, 0.5);
    if (obs.treated) {
      value += shift;
      // Additional effect only in the upper tail.
      if (value > 30.0) value += tail_shift;
    }
    obs.outcome = value;
    rows.push_back(obs);
  }
  return rows;
}

// One-rung ladder: the quantile-q effect alone.
EffectEstimate effect_at(const std::vector<Observation>& rows, double q) {
  const double qs[] = {q};
  return quantile_effect_ladder(rows, qs)[0].effect;
}

TEST(QuantileEffects, RecoversMedianShift) {
  const auto rows = shifted_world(5.0, 0.0, 3);
  const auto effect = effect_at(rows, 0.5);
  EXPECT_NEAR(effect.estimate, 5.0, 1.5);
  EXPECT_TRUE(effect.significant);
  EXPECT_LE(effect.ci_low, effect.estimate);
  EXPECT_GE(effect.ci_high, effect.estimate);
}

TEST(QuantileEffects, NullEffectUsuallyInsignificant) {
  int significant = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto rows = shifted_world(0.0, 0.0, 100 + rep);
    significant += effect_at(rows, 0.5).significant;
  }
  EXPECT_LE(significant, 2);
}

TEST(QuantileEffects, TailOnlyEffectInvisibleAtMedian) {
  const auto rows = shifted_world(0.0, 25.0, 17);
  const auto median = effect_at(rows, 0.5);
  const auto p99 = effect_at(rows, 0.99);
  EXPECT_GT(p99.estimate, 5.0);
  EXPECT_LT(std::abs(median.estimate), std::abs(p99.estimate) / 3.0);
}

TEST(QuantileEffects, LadderIsOrderedByQuantile) {
  const auto rows = shifted_world(2.0, 10.0, 23);
  const std::vector<double> qs{0.5, 0.9, 0.99};
  const auto ladder = quantile_effect_ladder(rows, qs);
  ASSERT_EQ(ladder.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(ladder[i].quantile, qs[i]);
    EXPECT_GT(ladder[i].effect.baseline, 0.0);
  }
}

TEST(QuantileEffects, TinyArmsThrow) {
  std::vector<Observation> rows(12);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].treated = i < 3;  // only 3 treated
    rows[i].outcome = static_cast<double>(i);
  }
  EXPECT_THROW(effect_at(rows, 0.5), std::invalid_argument);
}

TEST(QuantileEffects, DeterministicForSeed) {
  const auto rows = shifted_world(1.0, 0.0, 31);
  const auto a = effect_at(rows, 0.9);
  const auto b = effect_at(rows, 0.9);
  EXPECT_DOUBLE_EQ(a.ci_low, b.ci_low);
  EXPECT_DOUBLE_EQ(a.ci_high, b.ci_high);
}

}  // namespace
}  // namespace xp::core
