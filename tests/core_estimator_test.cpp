// Estimator registry + analysis stage: every registered estimator runs
// through the spec -> data -> estimate pipeline and is bit-for-bit
// identical at any thread count; unknown keys fail with a clear error
// naming the alternatives; ExperimentReport::cell rejects bad indices
// with the scenario name and the requested vs available shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/estimator.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "util/runner.h"

namespace xp {
namespace {

// ~1.25 simulated days of the paired-link week: enough for the day-based
// designs (switchback, event study) to have both arms while keeping the
// full 8-estimator sweep fast; the bootstrap is shrunk the same way.
lab::ExperimentSpec smoke_spec() {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning.duration_scale = 0.25;
  spec.replicates = 2;
  spec.estimators = core::estimator_names();
  spec.seed = 7;
  spec.analysis.bootstrap_replicates = 80;
  return spec;
}

void expect_estimates_identical(const core::EstimateTable& a,
                                const core::EstimateTable& b) {
  EXPECT_EQ(a.estimator, b.estimator);
  ASSERT_EQ(a.names, b.names);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const core::EstimateRow& x = a.rows[i];
    const core::EstimateRow& y = b.rows[i];
    SCOPED_TRACE(a.names[i]);
    EXPECT_EQ(x.metric, y.metric);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.estimand, y.estimand);
    EXPECT_EQ(x.allocation, y.allocation);
    ASSERT_EQ(x.replicates.size(), y.replicates.size());
    for (std::size_t r = 0; r < x.replicates.size(); ++r) {
      // Bit-for-bit, not approximately: the determinism contract.
      EXPECT_EQ(x.replicates[r].estimate, y.replicates[r].estimate);
      EXPECT_EQ(x.replicates[r].std_error, y.replicates[r].std_error);
      EXPECT_EQ(x.replicates[r].ci_low, y.replicates[r].ci_low);
      EXPECT_EQ(x.replicates[r].ci_high, y.replicates[r].ci_high);
      EXPECT_EQ(x.replicates[r].p_value, y.replicates[r].p_value);
      EXPECT_EQ(x.replicates[r].significant, y.replicates[r].significant);
      EXPECT_EQ(x.replicates[r].baseline, y.replicates[r].baseline);
    }
  }
}

// The paired smoke week is simulated + analyzed once at 1 thread and once
// at 4 and shared across the tests below.
class EstimatorPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Runner serial(1);
    util::Runner pool(4);
    serial_report_ = new lab::ExperimentReport(
        lab::run_experiment(smoke_spec(), serial));
    pool_report_ =
        new lab::ExperimentReport(lab::run_experiment(smoke_spec(), pool));
  }
  static void TearDownTestSuite() {
    delete serial_report_;
    delete pool_report_;
    serial_report_ = nullptr;
    pool_report_ = nullptr;
  }
  static const lab::ExperimentReport& serial_report() {
    return *serial_report_;
  }
  static const lab::ExperimentReport& pool_report() { return *pool_report_; }

 private:
  static lab::ExperimentReport* serial_report_;
  static lab::ExperimentReport* pool_report_;
};

lab::ExperimentReport* EstimatorPipeline::serial_report_ = nullptr;
lab::ExperimentReport* EstimatorPipeline::pool_report_ = nullptr;

TEST(EstimatorRegistry, ListsTheBuiltinEstimators) {
  const auto names = core::estimator_names();
  for (const char* expected :
       {"naive/ab", "paired_link/tte", "paired_link/spillover",
        "switchback/tte", "event_study/tte", "gradual/contrast",
        "quantile/ladder", "aa/null"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing estimator: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(EstimatorRegistry, UnknownNameFailsWithClearError) {
  try {
    core::make_estimator("no/such/estimator");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown estimator"), std::string::npos)
        << message;
    EXPECT_NE(message.find("no/such/estimator"), std::string::npos)
        << message;
    // The error lists the registered estimators so the fix is obvious.
    EXPECT_NE(message.find("paired_link/tte"), std::string::npos) << message;
    EXPECT_NE(message.find("naive/ab"), std::string::npos) << message;
    EXPECT_NE(message.find("quantile/ladder"), std::string::npos) << message;
  }
}

TEST(EstimatorRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(core::register_estimator(
                   "naive/ab",
                   []() -> std::unique_ptr<core::Estimator> {
                     return nullptr;
                   }),
               std::invalid_argument);
}

TEST(EstimatorRegistry, UnknownSpecKeyFailsBeforeSimulating) {
  lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.estimators = {"paired_link/tte", "bogus/estimator"};
  EXPECT_THROW(lab::run_experiment(spec), std::invalid_argument);
}

TEST_F(EstimatorPipeline, EveryEstimatorIsBitIdenticalAcrossThreadCounts) {
  const lab::ExperimentSpec spec = smoke_spec();
  ASSERT_EQ(serial_report().estimates.size(), spec.estimators.size());
  ASSERT_EQ(pool_report().estimates.size(), spec.estimators.size());
  for (std::size_t e = 0; e < spec.estimators.size(); ++e) {
    SCOPED_TRACE(spec.estimators[e]);
    expect_estimates_identical(serial_report().estimates[e],
                               pool_report().estimates[e]);
    // Every estimator must actually answer: at least one row per metric,
    // one estimate per replicate world.
    const core::EstimateTable& table = serial_report().estimates[e];
    EXPECT_GE(table.rows.size(),
              serial_report().cells.front().table.metrics.size());
    for (const core::EstimateRow& row : table.rows) {
      EXPECT_EQ(row.replicates.size(), spec.replicates) << row.metric;
    }
  }
}

TEST_F(EstimatorPipeline, PairedWeekProducesTheHeadlineRows) {
  const lab::ExperimentReport& report = serial_report();

  const auto& tte = report.estimates_for("paired_link/tte");
  ASSERT_TRUE(tte.has_row("avg throughput/tte"));
  ASSERT_TRUE(tte.has_row("avg throughput/tte(account)"));
  const core::EstimateRow& row = tte.row("avg throughput/tte");
  EXPECT_EQ(row.estimand, core::Estimand::kTotalTreatmentEffect);
  EXPECT_EQ(row.allocation, 0.95);
  // The capped week moves throughput; the baseline cell mean is real.
  EXPECT_NE(row.effect().baseline, 0.0);
  const core::EstimateSpread spread = core::relative_spread(row);
  EXPECT_LE(spread.min, spread.mean);
  EXPECT_LE(spread.mean, spread.max);

  EXPECT_TRUE(report.estimates_for("naive/ab")
                  .has_row("avg throughput/tau(link1)"));
  EXPECT_TRUE(report.estimates_for("paired_link/spillover")
                  .has_row("avg throughput/spillover"));
  // 1.25 simulated days give the day-based designs both arms.
  EXPECT_NE(report.estimates_for("switchback/tte")
                .row("avg throughput/tte")
                .effect()
                .std_error,
            0.0);
  EXPECT_NE(report.estimates_for("event_study/tte")
                .row("avg throughput/tte")
                .effect()
                .std_error,
            0.0);
}

TEST_F(EstimatorPipeline, EstimateTableLookupFailsWithClearError) {
  const lab::ExperimentReport& report = serial_report();
  try {
    report.estimates_for("not/registered");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("not/registered"), std::string::npos) << message;
    EXPECT_NE(message.find("paired_link/tte"), std::string::npos) << message;
  }
  try {
    report.estimates_for("paired_link/tte").row("no such row");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no such row"), std::string::npos) << message;
    EXPECT_NE(message.find("avg throughput/tte"), std::string::npos)
        << message;
  }
}

TEST(EstimateTableUnit, DuplicateRowKeysAreRejected) {
  core::EstimateTable table;
  core::EstimateRow row;
  row.metric = "avg throughput";
  row.label = "tau@0.5";
  row.replicates.push_back(core::EffectEstimate{});
  table.add_row(row);
  EXPECT_THROW(table.add_row(row), std::invalid_argument);
}

TEST(Report, CellRangeErrorsNameTheScenarioAndShape) {
  lab::ExperimentSpec spec;
  spec.scenario = "dumbbell/pacing";
  spec.tuning.duration_scale = 0.04;
  spec.replicates = 2;
  const auto report = lab::run_experiment(spec);

  EXPECT_NO_THROW(report.cell(0, 1));
  try {
    report.cell(1, 5);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("dumbbell/pacing"), std::string::npos) << message;
    EXPECT_NE(message.find("allocation 1"), std::string::npos) << message;
    EXPECT_NE(message.find("replicate 5"), std::string::npos) << message;
    EXPECT_NE(message.find("1 allocation(s)"), std::string::npos) << message;
    EXPECT_NE(message.find("2 replicate(s)"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace xp
