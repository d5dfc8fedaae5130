// Parallel experiment runner: execution semantics and the determinism
// contract (bit-for-bit identical results at any thread count).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "lab/experiment.h"
#include "util/runner.h"

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

TEST(Runner, ThreadCountEnvironmentIsParsedStrictly) {
  // Set and restore XP_THREADS around each read: a partly consumed,
  // non-numeric, zero, negative or empty token is an error, never a
  // silent fallback to hardware concurrency.
  const char* saved = std::getenv("XP_THREADS");
  const std::string restore = saved ? saved : "";
  for (const char* bad : {"4x", "abc", "0", "-2", ""}) {
    SCOPED_TRACE(bad);
    ASSERT_EQ(setenv("XP_THREADS", bad, 1), 0);
    try {
      util::default_thread_count();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("XP_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find('"' + std::string(bad) + '"'), std::string::npos)
          << what;
    }
  }
  ASSERT_EQ(setenv("XP_THREADS", "3", 1), 0);
  EXPECT_EQ(util::default_thread_count(), 3u);
  if (saved) {
    setenv("XP_THREADS", restore.c_str(), 1);
  } else {
    unsetenv("XP_THREADS");
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

}  // namespace
}  // namespace xp
