// Parallel experiment runner: execution semantics and the determinism
// contract (bit-for-bit identical results at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "lab/experiment.h"
#include "util/runner.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"

namespace xp {
namespace {

TEST(Runner, ExecutesEveryIndexExactlyOnce) {
  util::Runner runner(4);
  EXPECT_EQ(runner.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  runner.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, SingleThreadRunsInline) {
  util::Runner runner(1);
  EXPECT_EQ(runner.thread_count(), 1u);
  int sum = 0;  // no synchronization needed: everything runs on the caller
  runner.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(Runner, MapPreservesIndexOrder) {
  util::Runner runner(4);
  const std::vector<double> out = runner.map<double>(
      64, [](std::size_t i) { return static_cast<double>(i) * 1.5; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 1.5);
  }
}

TEST(Runner, PropagatesFirstException) {
  util::Runner runner(4);
  EXPECT_THROW(runner.parallel_for(
                   32,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(Runner, StopTokenSkipsNotYetStartedIndicesSerially) {
  // Serial runner: indices run strictly in order, so the cut is exact —
  // the index that requests the stop finishes, everything after it is
  // skipped.
  util::Runner runner(1);
  util::StopToken stop;
  std::vector<int> hits(10, 0);
  runner.parallel_for(
      hits.size(),
      [&](std::size_t i) {
        ++hits[i];
        if (i == 2) stop.request_stop();
      },
      &stop);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i <= 2 ? 1 : 0) << "index " << i;
  }
}

TEST(Runner, StopTokenCancelsThreadedWorkWithoutHanging) {
  // Threaded: an early stop must still terminate the completion wait (a
  // skipped index counts as completed), in-flight indices finish, and no
  // index ever runs twice.
  util::Runner runner(4);
  util::StopToken stop;
  std::vector<std::atomic<int>> hits(1000);
  std::atomic<std::size_t> executed{0};
  runner.parallel_for(
      hits.size(),
      [&](std::size_t i) {
        ++hits[i];
        if (executed.fetch_add(1) == 4) stop.request_stop();
      },
      &stop);
  std::size_t ran = 0;
  for (const auto& h : hits) {
    EXPECT_LE(h.load(), 1);
    ran += static_cast<std::size_t>(h.load());
  }
  EXPECT_GE(ran, 5u);                // the stopping index and its elders
  EXPECT_LT(ran, hits.size());       // the bulk was cancelled
  EXPECT_TRUE(stop.stop_requested());
}

TEST(Runner, StopTokenStillRethrowsTheFirstException) {
  // The fail_fast pattern: a body throws after requesting the stop; the
  // remainder is skipped but the error still reaches the caller.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    util::Runner runner(threads);
    util::StopToken stop;
    std::atomic<int> ran{0};
    try {
      runner.parallel_for(
          64,
          [&](std::size_t i) {
            ++ran;
            if (i == 3) {
              stop.request_stop();
              throw std::runtime_error("boom at 3");
            }
          },
          &stop);
      FAIL() << "expected the body's exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 3");
    }
    EXPECT_LT(ran.load(), 64);
  }
}

TEST(Runner, NestedParallelForCompletes) {
  // A bootstrap inside a sweep point: the caller participates in its own
  // job, so nesting must not deadlock even with every worker busy.
  util::Runner runner(4);
  std::atomic<int> total{0};
  runner.parallel_for(8, [&](std::size_t) {
    runner.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Runner, SweepIsBitIdenticalAcrossThreadCounts) {
  // The Figure 2 lab sweep through the pipeline: eleven independent
  // simulator cells, one per treated count, fanned across the runner.
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/two_connections";
  spec.tuning.duration_scale = 0.02;
  for (int treated = 0; treated <= 10; ++treated) {
    spec.allocations.push_back(treated / 10.0);
  }

  util::Runner serial(1);
  util::Runner pool(4);
  const auto sweep1 = lab::run_experiment(spec, serial);
  const auto sweepN = lab::run_experiment(spec, pool);

  ASSERT_EQ(sweep1.cells.size(), sweepN.cells.size());
  for (std::size_t i = 0; i < sweep1.cells.size(); ++i) {
    const auto& a = sweep1.cells[i].table;
    const auto& b = sweepN.cells[i].table;
    ASSERT_EQ(a.metrics, b.metrics);
    for (std::size_t c = 0; c < a.columns.size(); ++c) {
      ASSERT_EQ(a.columns[c].size(), b.columns[c].size());
      for (std::size_t r = 0; r < a.columns[c].size(); ++r) {
        EXPECT_EQ(a.columns[c][r].treated, b.columns[c][r].treated);
        // Bit-for-bit, not approximately: the determinism contract.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.columns[c][r].outcome),
                  std::bit_cast<std::uint64_t>(b.columns[c][r].outcome));
      }
    }
    EXPECT_EQ(a.aggregates, b.aggregates);
  }
}

TEST(Runner, BootstrapIsBitIdenticalAcrossThreadCounts) {
  stats::Rng fill(7);
  std::vector<double> xs(200);
  for (auto& x : xs) x = fill.lognormal(0.0, 1.0);

  const auto statistic = [](std::span<const double> s) {
    return stats::mean(s);
  };
  util::Runner serial(1);
  util::Runner pool(4);
  stats::Rng rng1(42);
  stats::Rng rngN(42);
  const auto ci1 = stats::bootstrap_ci(xs, statistic, rng1, 500, 0.95,
                                       &serial);
  const auto ciN = stats::bootstrap_ci(xs, statistic, rngN, 500, 0.95,
                                       &pool);
  EXPECT_EQ(ci1.point, ciN.point);
  EXPECT_EQ(ci1.low, ciN.low);
  EXPECT_EQ(ci1.high, ciN.high);
  EXPECT_EQ(ci1.std_error, ciN.std_error);
}

TEST(Runner, TwoSampleBootstrapIsBitIdenticalAcrossThreadCounts) {
  stats::Rng fill(11);
  std::vector<double> a(120), b(150);
  for (auto& x : a) x = fill.normal(2.0, 1.0);
  for (auto& x : b) x = fill.normal(1.5, 1.0);

  const stats::RankedSample ranked_a = stats::rank_sample(a);
  const stats::RankedSample ranked_b = stats::rank_sample(b);
  util::Runner serial(1);
  util::Runner pool(4);
  stats::Rng rng1(42);
  stats::Rng rngN(42);
  const auto ci1 = stats::bootstrap_quantile_difference_ci(
      ranked_a, ranked_b, 0.9, rng1, 400, 0.95, &serial);
  const auto ciN = stats::bootstrap_quantile_difference_ci(
      ranked_a, ranked_b, 0.9, rngN, 400, 0.95, &pool);
  EXPECT_EQ(ci1.point, ciN.point);
  EXPECT_EQ(ci1.low, ciN.low);
  EXPECT_EQ(ci1.high, ciN.high);
  EXPECT_EQ(ci1.std_error, ciN.std_error);
}

}  // namespace
}  // namespace xp
