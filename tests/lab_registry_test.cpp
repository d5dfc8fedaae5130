// Scenario registry + experiment pipeline: every registered scenario runs
// through the one ExperimentSpec -> run_experiment -> Report pipeline and
// is bit-for-bit identical at any thread count; unknown names fail with a
// clear error naming the alternatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "trace/codec.h"
#include "trace/writer.h"
#include "util/runner.h"

namespace xp {
namespace {

// Smoke-scale worlds: a sliver of the canonical horizons so the full
// registry sweep stays fast while still exercising both backends.
lab::SourceOptions smoke_options() {
  lab::SourceOptions options;
  options.duration_scale = 0.04;
  return options;
}

void expect_tables_identical(const lab::ObservationTable& a,
                             const lab::ObservationTable& b) {
  ASSERT_EQ(a.metrics, b.metrics);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (std::size_t c = 0; c < a.columns.size(); ++c) {
    ASSERT_EQ(a.columns[c].size(), b.columns[c].size()) << a.metrics[c];
    for (std::size_t r = 0; r < a.columns[c].size(); ++r) {
      const core::Observation& x = a.columns[c][r];
      const core::Observation& y = b.columns[c][r];
      EXPECT_EQ(x.unit, y.unit);
      EXPECT_EQ(x.account, y.account);
      EXPECT_EQ(x.treated, y.treated);
      // Bit-for-bit, not approximately: the determinism contract. The
      // comparison is over bit patterns so NaN outcomes (corrupted
      // telemetry under a fault plan) compare equal to themselves.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.outcome),
                std::bit_cast<std::uint64_t>(y.outcome));
      EXPECT_EQ(x.hour_of_day, y.hour_of_day);
      EXPECT_EQ(x.hour_index, y.hour_index);
      EXPECT_EQ(x.day, y.day);
      EXPECT_EQ(x.group, y.group);
    }
  }
  ASSERT_EQ(a.aggregate_names, b.aggregate_names);
  for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
    EXPECT_EQ(a.aggregates[i], b.aggregates[i]) << a.aggregate_names[i];
  }
  ASSERT_EQ(a.series_names, b.series_names);
  ASSERT_EQ(a.series, b.series);
}

TEST(Registry, ListsTheBuiltinScenarios) {
  const auto names = lab::scenario_names();
  for (const char* expected :
       {"dumbbell/two_connections", "dumbbell/pacing",
        "dumbbell/bbr_vs_cubic", "paired_links/experiment",
        "paired_links/baseline", "paired_links/cap_50",
        "paired_links/drop_top", "paired_links/abr_swap",
        "paired_links/bba_vs_rate", "trace/replay",
        "trace/self_calibration"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing scenario: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, UnknownNameFailsWithClearError) {
  try {
    lab::make_scenario("no/such/scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown scenario"), std::string::npos) << message;
    EXPECT_NE(message.find("no/such/scenario"), std::string::npos) << message;
    // The error lists the registered scenarios so the fix is obvious.
    EXPECT_NE(message.find("dumbbell/two_connections"), std::string::npos)
        << message;
    EXPECT_NE(message.find("paired_links/experiment"), std::string::npos)
        << message;
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(
      lab::register_scenario("dumbbell/pacing",
                             [](const lab::SourceOptions&)
                                 -> std::unique_ptr<lab::DataSource> {
                               return nullptr;
                             }),
      std::invalid_argument);
}

// Report digests (FNV-1a-64 over every cell table and estimate row,
// doubles by bit pattern — perfbench/src/digest.h) of each registered
// scenario's smoke-scale spec through all nine estimators. A refactor
// that claims "same behaviour" must leave every digest unmoved; moving
// one on purpose is a re-pin, noted in CHANGES.md with the reason.
struct GoldenDigest {
  const char* scenario;
  std::uint64_t digest;
};
constexpr GoldenDigest kGoldenDigests[] = {
    {"dumbbell/bbr_vs_cubic", 0x67bd5543b01be9fdull},
    {"dumbbell/pacing", 0x2793aaed242b7168ull},
    {"dumbbell/two_connections", 0x4c1b6533602def45ull},
    {"fleet/experiment", 0xfc031befd9c3e621ull},
    {"fleet/heterogeneous", 0x6b00932f5405f12cull},
    {"paired_links/abr_swap", 0x9d865e08c25e9946ull},
    {"paired_links/baseline", 0xafdde6833a1544aeull},
    {"paired_links/bba_vs_rate", 0x4c1be55ead326d45ull},
    {"paired_links/cap_50", 0xeebfecc44d5b48f0ull},
    {"paired_links/drop_top", 0xa008fbe3b7909d29ull},
    {"paired_links/experiment", 0x1f42434045477e18ull},
    {"paired_links/flash_crowd", 0x62fac807e3e5a1caull},
    {"paired_links/lossy_telemetry", 0x5c260939cc954dceull},
    {"paired_links/outage", 0x37a5153ef10f2241ull},
    {"trace/replay", 0xba1f59b6d0f80f00ull},
    {"trace/self_calibration", 0xf1a9d2aa9912d35aull},
};

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llxull",
                static_cast<unsigned long long>(value));
  return buffer;
}

TEST(Registry, EveryScenarioIsBitIdenticalAcrossThreadCounts) {
  // Every registered key has a golden, and every golden a key: a new
  // scenario lands together with its pinned digest.
  std::vector<std::string> golden_keys;
  for (const GoldenDigest& golden : kGoldenDigests) {
    golden_keys.emplace_back(golden.scenario);
  }
  ASSERT_EQ(lab::scenario_names(), golden_keys);

  util::Runner serial(1);
  util::Runner pool(4);
  // trace/replay needs a recorded log; export one smoke world for it
  // (the other scenarios ignore the path).
  const std::string trace_path =
      ::testing::TempDir() + "registry_smoke_trace.xpt";
  {
    const auto source =
        lab::make_scenario("paired_links/experiment", smoke_options());
    trace::TraceMeta meta;
    meta.source = "paired_links/experiment";
    meta.allocation = 0.95;
    meta.intended_treated_fraction = source->intended_treated_fraction(0.95);
    meta.seed = 5;
    trace::write_trace_file(trace_path,
                            trace::make_log(source->run(0.95, 5), meta));
  }
  for (const GoldenDigest& golden : kGoldenDigests) {
    const std::string name = golden.scenario;
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning = smoke_options();
    spec.tuning.trace_path = trace_path;
    spec.replicates = 2;
    spec.seed = 7;
    spec.estimators = core::estimator_names();
    spec.analysis.bootstrap_replicates = 50;

    const auto report1 = lab::run_experiment(spec, serial);
    const auto reportN = lab::run_experiment(spec, pool);

    // Pin a real run, never an empty one: every cell OK with rows, and
    // the analysis stage produced estimates.
    ASSERT_TRUE(report1.manifest().complete());
    std::size_t estimate_rows = 0;
    for (const auto& table : report1.estimates) {
      estimate_rows += table.rows.size();
    }
    EXPECT_GT(estimate_rows, 0u);
    for (const auto& cell : report1.cells) {
      ASSERT_FALSE(cell.table.columns.empty());
      EXPECT_GT(cell.table.columns.front().size(), 5u);
    }

    ASSERT_EQ(report1.allocations, reportN.allocations);
    ASSERT_EQ(report1.cells.size(), reportN.cells.size());
    for (std::size_t i = 0; i < report1.cells.size(); ++i) {
      EXPECT_EQ(report1.cells[i].allocation, reportN.cells[i].allocation);
      EXPECT_EQ(report1.cells[i].replicate, reportN.cells[i].replicate);
      EXPECT_EQ(report1.cells[i].seed, reportN.cells[i].seed);
      expect_tables_identical(report1.cells[i].table,
                              reportN.cells[i].table);
    }
    const std::uint64_t digest1 = perfbench::report_digest(report1);
    EXPECT_EQ(hex(digest1), hex(perfbench::report_digest(reportN)))
        << name << ": report differs between 1 and 4 threads";
    EXPECT_EQ(hex(digest1), hex(golden.digest))
        << name << ": report digest moved from its golden";
  }
}

TEST(Pipeline, DefaultAllocationComesFromTheSource) {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning = smoke_options();
  const auto report = lab::run_experiment(spec);
  ASSERT_EQ(report.allocations.size(), 1u);
  // The canonical paired-link experiment treats 95% on link 1.
  EXPECT_DOUBLE_EQ(report.allocations[0], 0.95);
}

TEST(Pipeline, CellSeedsAreIndexDerived) {
  // Same spec seed -> same cell seeds; distinct indices -> distinct seeds.
  EXPECT_EQ(lab::cell_seed(42, 0), lab::cell_seed(42, 0));
  EXPECT_NE(lab::cell_seed(42, 0), lab::cell_seed(42, 1));
  EXPECT_NE(lab::cell_seed(42, 0), lab::cell_seed(43, 0));
}

TEST(Pipeline, ReplicateWorldsAreIndependent) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/two_connections";
  spec.tuning = smoke_options();
  spec.replicates = 2;
  const auto report = lab::run_experiment(spec);
  const auto& first = report.cell(0, 0).table.column("avg throughput");
  const auto& second = report.cell(0, 1).table.column("avg throughput");
  ASSERT_EQ(first.size(), second.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    any_difference |= first[i].outcome != second[i].outcome;
  }
  EXPECT_TRUE(any_difference) << "replicates reused the same seed";
}

TEST(Pipeline, TableLookupFailsWithClearError) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/pacing";
  spec.tuning = smoke_options();
  const auto report = lab::run_experiment(spec);
  try {
    report.cell(0, 0).table.column("no such metric");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no such metric"), std::string::npos) << message;
    EXPECT_NE(message.find("avg throughput"), std::string::npos) << message;
  }
}

TEST(Pipeline, PolicyScenariosRunEndToEndThroughEstimators) {
  // The acceptance seam of the policy layer: every policy-backed scenario
  // key runs one spec through the registry estimators unchanged, and the
  // analysis stage yields finite headline estimates.
  for (const char* name :
       {"paired_links/cap_50", "paired_links/drop_top",
        "paired_links/abr_swap", "paired_links/bba_vs_rate"}) {
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning = smoke_options();
    spec.estimators = {"naive/ab", "paired_link/tte"};
    spec.seed = 11;
    const auto report = lab::run_experiment(spec);
    const auto& tte = report.estimates_for("paired_link/tte");
    const auto& row = tte.row("video bitrate/tte");
    ASSERT_FALSE(row.replicates.empty());
    EXPECT_TRUE(std::isfinite(row.effect().estimate));
    EXPECT_LE(row.effect().ci_low, row.effect().ci_high);
  }
}

}  // namespace
}  // namespace xp
