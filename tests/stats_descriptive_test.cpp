#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace xp::stats {
namespace {

TEST(Descriptive, MeanBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7.0}), 7.0);
}

TEST(Descriptive, VarianceUnbiased) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known: population var 4, sample var 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0}), 0.0);
}

TEST(Descriptive, Stddev) {
  const std::vector<double> xs{1.0, 3.0};
  EXPECT_NEAR(stddev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
  EXPECT_TRUE(std::isinf(min(std::vector<double>{})));
}

TEST(Descriptive, QuantileType7) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_NEAR(quantile(xs, 0.25), 1.75, 1e-12);  // R type-7 reference
}

TEST(Descriptive, QuantileUnsortedInput) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
}

TEST(Descriptive, QuantileClampsOutOfRange) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 2.0);
}

// Property sweep: quantile_sorted is monotone in q for random-ish data.
class QuantileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  std::vector<double> xs;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) xs.push_back(((i * 2654435761u) % 1000) / 10.0);
  std::sort(xs.begin(), xs.end());
  double prev = quantile_sorted(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = quantile_sorted(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuantileMonotone,
                         ::testing::Values(1, 2, 3, 10, 101, 1000));

}  // namespace
}  // namespace xp::stats
