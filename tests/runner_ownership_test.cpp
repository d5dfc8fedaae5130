// The explicit runner is honoured: run_experiment(spec, runner) executes
// on `runner` alone, so a one-thread runner leaves the process with the
// threads it started with. A source or estimator that looked up the
// process-wide pool instead would spawn one worker per XP_THREADS here.
//
// Each test binary is its own process, so nothing earlier has built the
// global pool; XP_THREADS=4 makes a stray pool visible even on a
// single-vCPU machine.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "lab/experiment.h"
#include "util/runner.h"

namespace xp {
namespace {

constexpr const char* kTaskDir = "/proc/self/task";

/// Threads of this process, one /proc/self/task entry each; 0 when the
/// directory is unavailable (not Linux, or /proc not mounted).
std::size_t thread_count_now() {
  std::error_code ec;
  std::filesystem::directory_iterator it(kTaskDir, ec);
  if (ec) return 0;
  std::size_t n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) ++n;
  return n;
}

// Namespace-scope initialisers run in declaration order before main, so
// XP_THREADS is set before anything could build the global pool, and the
// baseline is taken before any test runs.
const bool kThreadsPinned = setenv("XP_THREADS", "4", 1) == 0;
const std::size_t kThreadsAtStart = thread_count_now();

void expect_no_new_threads(const lab::ExperimentSpec& spec) {
  ASSERT_TRUE(kThreadsPinned);
  if (kThreadsAtStart == 0) GTEST_SKIP() << kTaskDir << " is unavailable";
  util::Runner serial(1);
  const lab::ExperimentReport report = lab::run_experiment(spec, serial);
  EXPECT_EQ(report.manifest().ok, report.cells.size());
  ASSERT_EQ(report.estimates.size(), 1u);
  EXPECT_FALSE(report.estimates[0].rows.empty());
  EXPECT_EQ(thread_count_now(), kThreadsAtStart)
      << spec.scenario << " with " << spec.estimators[0]
      << " started threads outside the runner it was handed";
}

TEST(RunnerOwnership, FleetShardsRunOnTheCallersRunner) {
  lab::ExperimentSpec spec;
  spec.scenario = "fleet/heterogeneous";
  spec.tuning.duration_scale = 0.02;
  spec.estimators = {"paired_link/tte"};
  expect_no_new_threads(spec);
}

TEST(RunnerOwnership, QuantileLadderRunsOnTheCallersRunner) {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning.duration_scale = 0.05;
  spec.estimators = {"quantile/ladder"};
  expect_no_new_threads(spec);
}

}  // namespace
}  // namespace xp
