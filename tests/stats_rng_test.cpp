#include "stats/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace xp::stats {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounded) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(41);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(47);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, LognormalMedian) {
  Rng rng(53);
  std::vector<double> xs(50001);
  for (auto& x : xs) x = rng.lognormal(2.0, 0.5);
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], std::exp(2.0), 0.15);
}

// --- BatchedRng: the documented draw-order contract -------------------
//
// BatchedRng(seed) must produce exactly the variate sequence Rng(seed)
// produces, for any interleaving of member calls: buffering changes when
// raw words are generated, never which word a draw consumes.

TEST(BatchedRng, InterleavedDrawsBitIdenticalToRng) {
  Rng scalar(2021);
  BatchedRng batched(2021);
  // A deterministic but scrambled schedule over every member the tick
  // loop uses; mix64 decides the call type so the interleaving is
  // arbitrary rather than periodic.
  for (std::uint64_t step = 0; step < 5000; ++step) {
    switch (mix64(step) % 8) {
      case 0:
        EXPECT_EQ(scalar.next(), batched.next()) << "step " << step;
        break;
      case 1:
        EXPECT_EQ(scalar.uniform(), batched.uniform()) << "step " << step;
        break;
      case 2:
        EXPECT_EQ(scalar.uniform(2.0, 7.0), batched.uniform(2.0, 7.0))
            << "step " << step;
        break;
      case 3:
        EXPECT_EQ(scalar.uniform_int(97), batched.uniform_int(97))
            << "step " << step;
        break;
      case 4:
        EXPECT_EQ(scalar.normal(), batched.normal()) << "step " << step;
        break;
      case 5:
        EXPECT_EQ(scalar.exponential(0.25), batched.exponential(0.25))
            << "step " << step;
        break;
      case 6:
        EXPECT_EQ(scalar.poisson(3.7), batched.poisson(3.7))
            << "step " << step;
        break;
      case 7:
        EXPECT_EQ(scalar.lognormal(0.5, 0.9), batched.lognormal(0.5, 0.9))
            << "step " << step;
        break;
    }
  }
}

TEST(BatchedRng, RefillBoundaryCorrectness) {
  // Tiny block sizes force a refill every few draws; the stream must not
  // notice. Prime sizes land the boundary on every phase of the draw
  // pattern (normal consumes 2+ words, poisson a variable count).
  for (const std::size_t block : {1UL, 2UL, 3UL, 7UL, 64UL}) {
    Rng scalar(99);
    BatchedRng batched(99, block);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(scalar.next(), batched.next()) << "block " << block;
      ASSERT_EQ(scalar.normal(), batched.normal()) << "block " << block;
      ASSERT_EQ(scalar.poisson(2.5), batched.poisson(2.5))
          << "block " << block;
    }
  }
}

TEST(Mix64, DeterministicAndAvalanching) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // A single bit flip should change about half the output bits.
  const std::uint64_t d = mix64(42) ^ mix64(43);
  int bits = 0;
  for (int i = 0; i < 64; ++i) bits += (d >> i) & 1;
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

}  // namespace
}  // namespace xp::stats
