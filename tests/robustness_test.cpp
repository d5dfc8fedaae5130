// Fault injection + graceful degradation: deterministic FaultPlans bite
// the simulated world the way they claim to; cell failures are isolated
// under FailurePolicy without perturbing the surviving estimates;
// data-quality guardrails (SRM, quality holds) flag broken cells; and
// every registered estimator survives degenerate inputs with null rows
// or a named error — never a crash.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/data_quality.h"
#include "core/designs/paired_link.h"
#include "core/estimator.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "stats/rng.h"
#include "util/budget.h"
#include "util/runner.h"
#include "video/cluster.h"
#include "video/faults.h"

namespace xp {
namespace {

// ------------------------------------------------------- test scenarios ----

/// Seeds the flaky source throws on. Tests poison specific cell/attempt
/// seeds so failures land deterministically where the test wants them.
std::set<std::uint64_t>& poisoned_seeds() {
  static std::set<std::uint64_t> seeds;
  return seeds;
}

/// TestSource::run invocations across all kinds — the observable the
/// cooperative-cancellation tests pin (how many cells actually simulated
/// before fail_fast stopped the sweep).
std::atomic<std::uint64_t>& test_source_runs() {
  static std::atomic<std::uint64_t> runs{0};
  return runs;
}

enum class Kind { kClean, kFlaky, kBudget, kEmpty, kAllNan, kSingleArm };

/// A tiny synthetic world: ~300 units with hour/day structure so every
/// design has something to chew on, pure in (allocation, seed). kClean
/// and kFlaky generate *identical* tables for non-poisoned seeds — the
/// seam the surviving-estimates bit-identity test relies on.
class TestSource final : public lab::DataSource {
 public:
  explicit TestSource(Kind kind) : kind_(kind) {}

  double default_allocation() const noexcept override { return 0.5; }

  lab::ObservationTable run(double allocation, std::uint64_t seed,
                            util::Runner&) const override {
    ++test_source_runs();
    if (kind_ == Kind::kFlaky && poisoned_seeds().count(seed) > 0) {
      throw std::runtime_error("injected infrastructure fault (seed " +
                               std::to_string(seed) + ")");
    }
    if (kind_ == Kind::kBudget && poisoned_seeds().count(seed) > 0) {
      util::throw_budget_exceeded("test source", "units", 42);
    }
    lab::ObservationTable table;
    if (kind_ == Kind::kEmpty) return table;
    stats::Rng rng(seed);
    std::vector<core::Observation> rows;
    const std::size_t n = 300;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      core::Observation obs;
      obs.unit = i;
      obs.account = i;
      obs.treated =
          kind_ == Kind::kSingleArm ? false : rng.bernoulli(allocation);
      obs.hour_of_day = static_cast<std::uint16_t>(i % 24);
      obs.hour_index = i % 48;
      obs.day = static_cast<std::uint32_t>((i / 24) % 4);
      obs.group = static_cast<std::uint8_t>(i % 2);
      obs.outcome = kind_ == Kind::kAllNan
                        ? std::numeric_limits<double>::quiet_NaN()
                        : 10.0 + (obs.treated ? 1.0 : 0.0) +
                              rng.normal(0.0, 0.5);
      rows.push_back(obs);
    }
    table.add_column("synthetic metric", std::move(rows));
    return table;
  }

 private:
  Kind kind_;
};

void ensure_test_scenarios() {
  static const bool registered = [] {
    const auto add = [](const char* name, Kind kind) {
      lab::register_scenario(
          name, [kind](const lab::SourceOptions&) {
            return std::make_unique<TestSource>(kind);
          });
    };
    add("test/clean", Kind::kClean);
    add("test/flaky", Kind::kFlaky);
    add("test/budget", Kind::kBudget);
    add("test/empty", Kind::kEmpty);
    add("test/nan", Kind::kAllNan);
    add("test/single_arm", Kind::kSingleArm);
    return true;
  }();
  (void)registered;
}

lab::ExperimentSpec synthetic_spec(const char* scenario) {
  ensure_test_scenarios();
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.replicates = 2;
  spec.seed = 99;
  spec.analysis.bootstrap_replicates = 40;
  return spec;
}

void expect_message_names(const std::exception& e, const char* fragment) {
  EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
      << e.what();
}

// ------------------------------------------------------ FaultPlan layer ----

TEST(FaultPlan, ValidateNamesTheOffendingField) {
  const auto expect_rejected = [](const video::FaultPlan& plan,
                                  const char* field) {
    try {
      video::validate(plan);
      FAIL() << "expected std::invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      expect_message_names(e, "FaultPlan");
      expect_message_names(e, field);
    }
  };
  video::FaultPlan plan;
  plan.link_faults.push_back({2, 0.0, 10.0, 0.5});
  expect_rejected(plan, "link_faults[0].link");
  plan.link_faults[0] = {0, 10.0, 10.0, 0.5};
  expect_rejected(plan, "link_faults[0].end_seconds");
  plan.link_faults[0] = {0, 0.0, 10.0, -0.5};
  expect_rejected(plan, "link_faults[0].capacity_factor");
  plan.link_faults.clear();
  plan.demand_faults.push_back({5.0, 1.0, 2.0});
  expect_rejected(plan, "demand_faults[0].end_seconds");
  plan.demand_faults.clear();
  plan.telemetry.drop_probability = 1.5;
  expect_rejected(plan, "telemetry.drop_probability");
  plan.telemetry = {};
  plan.telemetry.corrupt_probability = -0.1;
  expect_rejected(plan, "telemetry.corrupt_probability");
}

TEST(FaultPlan, WindowsComposeMultiplicativelyAndScale) {
  video::FaultPlan plan;
  plan.link_faults.push_back({0, 100.0, 200.0, 0.5});
  plan.link_faults.push_back({0, 150.0, 250.0, 0.4});
  plan.link_faults.push_back({1, 100.0, 200.0, 0.0});
  EXPECT_EQ(video::capacity_factor(plan, 0, 50.0), 1.0);
  EXPECT_EQ(video::capacity_factor(plan, 0, 120.0), 0.5);
  EXPECT_EQ(video::capacity_factor(plan, 0, 180.0), 0.5 * 0.4);
  EXPECT_EQ(video::capacity_factor(plan, 0, 220.0), 0.4);
  EXPECT_EQ(video::capacity_factor(plan, 0, 250.0), 1.0);  // end exclusive
  EXPECT_EQ(video::capacity_factor(plan, 1, 120.0), 0.0);

  plan.demand_faults.push_back({100.0, 200.0, 2.0});
  plan.demand_faults.push_back({150.0, 250.0, 1.5});
  EXPECT_EQ(video::demand_multiplier(plan, 50.0), 1.0);
  EXPECT_EQ(video::demand_multiplier(plan, 180.0), 2.0 * 1.5);

  plan.scale_time(0.5);
  EXPECT_EQ(plan.link_faults[0].start_seconds, 50.0);
  EXPECT_EQ(plan.link_faults[0].end_seconds, 100.0);
  EXPECT_EQ(plan.demand_faults[1].end_seconds, 125.0);
  EXPECT_TRUE(video::FaultPlan{}.empty());
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, TelemetryFateIsSeedPureAndCalibrated) {
  video::TelemetryFault fault;
  fault.drop_probability = 0.2;
  fault.corrupt_probability = 0.1;
  std::size_t dropped = 0, corrupted = 0;
  const std::size_t n = 20000;
  for (std::uint64_t id = 1; id <= n; ++id) {
    const auto fate = video::telemetry_fate(fault, 42, id);
    // Seed-pure: the same (fault, seed, id) always lands the same way.
    EXPECT_EQ(fate, video::telemetry_fate(fault, 42, id));
    if (fate == video::TelemetryFate::kDropped) ++dropped;
    if (fate == video::TelemetryFate::kCorrupted) ++corrupted;
  }
  const double drop_rate = static_cast<double>(dropped) / n;
  // Corruption only applies to kept records: p_corrupt * (1 - p_drop).
  const double corrupt_rate = static_cast<double>(corrupted) / n;
  EXPECT_NEAR(drop_rate, 0.2, 0.02);
  EXPECT_NEAR(corrupt_rate, 0.1 * 0.8, 0.02);
  // A different seed reshuffles the victims.
  bool any_difference = false;
  for (std::uint64_t id = 1; id <= 100; ++id) {
    any_difference |= video::telemetry_fate(fault, 42, id) !=
                      video::telemetry_fate(fault, 43, id);
  }
  EXPECT_TRUE(any_difference);
}

video::ClusterConfig tiny_cluster() {
  video::ClusterConfig config;
  config.days = 0.08;  // ~2 simulated hours off-peak
  config.seed = 7;
  return config;
}

TEST(FaultInjection, OutageZeroesUtilizationInsideTheWindow) {
  video::ClusterConfig config = tiny_cluster();
  config.faults.link_faults.push_back(
      {/*link=*/0, 3600.0, 7200.0, /*capacity_factor=*/0.0});
  const video::ClusterResult result = video::run_paired_links(config);
  ASSERT_GE(result.hourly_utilization[0].size(), 2u);
  EXPECT_GT(result.hourly_utilization[0][0], 0.0);  // before the outage
  EXPECT_EQ(result.hourly_utilization[0][1], 0.0);  // dark link
  EXPECT_GT(result.hourly_utilization[1][1], 0.0);  // paired link unhurt
}

TEST(FaultInjection, FlashCrowdMultipliesArrivals) {
  const video::ClusterResult clean = video::run_paired_links(tiny_cluster());
  video::ClusterConfig config = tiny_cluster();
  config.faults.demand_faults.push_back({0.0, 1e9, /*rate_multiplier=*/3.0});
  const video::ClusterResult crowd = video::run_paired_links(config);
  EXPECT_GT(crowd.stats.sessions_started,
            2 * clean.stats.sessions_started);
}

TEST(FaultInjection, LossyTelemetryDegradesTheDatasetNotTheWorld) {
  const video::ClusterResult clean = video::run_paired_links(tiny_cluster());
  video::ClusterConfig config = tiny_cluster();
  config.faults.telemetry.drop_probability = 0.2;
  config.faults.telemetry.corrupt_probability = 0.1;
  const video::ClusterResult lossy = video::run_paired_links(config);

  EXPECT_GT(lossy.stats.records_dropped, 0u);
  EXPECT_GT(lossy.stats.records_corrupted, 0u);
  EXPECT_EQ(lossy.sessions.size() + lossy.stats.records_dropped,
            clean.sessions.size());
  // The simulated world is untouched: every surviving record matches its
  // clean twin bit-for-bit outside the corrupted network fields.
  std::map<std::uint64_t, const video::SessionRecord*> clean_by_id;
  for (const video::SessionRecord& record : clean.sessions) {
    clean_by_id[record.session_id] = &record;
  }
  std::uint64_t corrupted_seen = 0;
  for (const video::SessionRecord& record : lossy.sessions) {
    const auto it = clean_by_id.find(record.session_id);
    ASSERT_NE(it, clean_by_id.end());
    const video::SessionRecord& twin = *it->second;
    EXPECT_EQ(record.avg_bitrate_bps, twin.avg_bitrate_bps);
    EXPECT_EQ(record.rebuffer_seconds, twin.rebuffer_seconds);
    if (std::isnan(record.avg_throughput_bps)) {
      ++corrupted_seen;
      EXPECT_TRUE(std::isnan(record.min_rtt));
      EXPECT_TRUE(std::isnan(record.mean_rtt));
      EXPECT_TRUE(std::isnan(record.retransmit_fraction));
    } else {
      EXPECT_EQ(record.avg_throughput_bps, twin.avg_throughput_bps);
      EXPECT_EQ(record.mean_rtt, twin.mean_rtt);
    }
  }
  EXPECT_EQ(corrupted_seen, lossy.stats.records_corrupted);
}

TEST(FaultInjection, FaultScenarioKeysAreBitIdenticalAcrossThreadCounts) {
  util::Runner serial(1);
  util::Runner pool(4);
  for (const char* name :
       {"paired_links/outage", "paired_links/flash_crowd",
        "paired_links/lossy_telemetry"}) {
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning.duration_scale = 0.04;
    spec.replicates = 2;
    spec.seed = 17;
    spec.estimators = {"paired_link/tte", "guardrail/srm"};
    const auto report1 = lab::run_experiment(spec, serial);
    const auto reportN = lab::run_experiment(spec, pool);
    ASSERT_EQ(report1.cells.size(), reportN.cells.size());
    for (std::size_t i = 0; i < report1.cells.size(); ++i) {
      const auto& a = report1.cells[i].table;
      const auto& b = reportN.cells[i].table;
      ASSERT_EQ(a.metrics, b.metrics);
      for (std::size_t c = 0; c < a.columns.size(); ++c) {
        ASSERT_EQ(a.columns[c].size(), b.columns[c].size());
        for (std::size_t r = 0; r < a.columns[c].size(); ++r) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.columns[c][r].outcome),
                    std::bit_cast<std::uint64_t>(b.columns[c][r].outcome));
        }
      }
      ASSERT_EQ(a.aggregates, b.aggregates);
    }
    ASSERT_EQ(report1.estimates.size(), reportN.estimates.size());
    for (std::size_t e = 0; e < report1.estimates.size(); ++e) {
      ASSERT_EQ(report1.estimates[e].names, reportN.estimates[e].names);
      for (std::size_t r = 0; r < report1.estimates[e].rows.size(); ++r) {
        const auto& x = report1.estimates[e].rows[r];
        const auto& y = reportN.estimates[e].rows[r];
        ASSERT_EQ(x.replicates.size(), y.replicates.size());
        for (std::size_t k = 0; k < x.replicates.size(); ++k) {
          EXPECT_EQ(x.replicates[k].estimate, y.replicates[k].estimate);
          EXPECT_EQ(x.replicates[k].p_value, y.replicates[k].p_value);
        }
      }
    }
  }
}

// ------------------------------------------------------- spec validation ----

TEST(SpecValidation, NamesTheOffendingField) {
  const auto expect_rejected = [](const lab::ExperimentSpec& spec,
                                  const char* field) {
    try {
      lab::validate(spec);
      FAIL() << "expected std::invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      expect_message_names(e, "ExperimentSpec");
      expect_message_names(e, field);
    }
  };
  lab::ExperimentSpec spec;
  spec.allocations = {0.5};
  expect_rejected(spec, "scenario");
  spec.scenario = "test/clean";
  spec.replicates = 0;
  expect_rejected(spec, "replicates");
  spec.replicates = 1;
  for (double scale :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    spec.tuning.duration_scale = scale;
    expect_rejected(spec, "tuning.duration_scale");
  }
  spec.tuning.duration_scale = 1.0;
  spec.allocations = {};
  expect_rejected(spec, "allocations");
  spec.allocations = {1.5};
  expect_rejected(spec, "allocations[0]");
  spec.allocations = {std::numeric_limits<double>::quiet_NaN()};
  expect_rejected(spec, "allocations[0]");
  spec.allocations = {0.5, 0.5};
  expect_rejected(spec, "allocations[1]");
  spec.allocations = {0.3, 0.5};
  spec.estimators = {"naive/ab", "naive/ab"};
  expect_rejected(spec, "estimators[1]");
  spec.estimators = {"naive/ab"};
  spec.on_failure = lab::FailurePolicy::retry(0);
  expect_rejected(spec, "on_failure.max_attempts");
  spec.on_failure = lab::FailurePolicy::fail_fast();
  lab::validate(spec);  // everything named above fixed -> valid
}

TEST(SpecValidation, RunExperimentRejectsInvalidSpecsBeforeSimulating) {
  lab::ExperimentSpec spec = synthetic_spec("test/clean");
  spec.replicates = 0;
  EXPECT_THROW(lab::run_experiment(spec), std::invalid_argument);
  spec = synthetic_spec("test/clean");
  spec.allocations = {0.4, 0.4};
  EXPECT_THROW(lab::run_experiment(spec), std::invalid_argument);
  // A bad horizon scale is refused naming the spec field before any
  // source is built — trace/self_calibration simulates a whole week
  // while it is constructed, where the scale would otherwise surface as
  // a backend error ("days must be positive").
  for (double scale : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    spec = synthetic_spec("trace/self_calibration");
    spec.tuning.duration_scale = scale;
    try {
      lab::run_experiment(spec);
      FAIL() << "expected std::invalid_argument for scale " << scale;
    } catch (const std::invalid_argument& e) {
      expect_message_names(e, "tuning.duration_scale");
    }
  }
  spec = synthetic_spec("test/clean");
  spec.tuning.duration_scale = 0.0;
  const std::uint64_t runs_before = test_source_runs().load();
  EXPECT_THROW(lab::run_experiment(spec), std::invalid_argument);
  EXPECT_EQ(test_source_runs().load(), runs_before);
  // An empty allocation list is resolved from the source default, not
  // rejected.
  spec = synthetic_spec("test/clean");
  const auto report = lab::run_experiment(spec);
  ASSERT_EQ(report.allocations.size(), 1u);
  EXPECT_DOUBLE_EQ(report.allocations[0], 0.5);
}

// ------------------------------------------------------- failure policy ----

TEST(FailurePolicy, FailFastPropagatesTheCellError) {
  lab::ExperimentSpec spec = synthetic_spec("test/flaky");
  poisoned_seeds() = {lab::cell_seed(spec.seed, 0)};
  try {
    lab::run_experiment(spec);
    FAIL() << "expected the poisoned cell to abort the sweep";
  } catch (const std::runtime_error& e) {
    expect_message_names(e, "injected infrastructure fault");
  }
  poisoned_seeds().clear();
}

TEST(FailurePolicy, SkipYieldsPartialReportWithBitIdenticalSurvivors) {
  lab::ExperimentSpec clean_spec = synthetic_spec("test/clean");
  clean_spec.estimators = core::estimator_names();
  lab::ExperimentSpec flaky_spec = clean_spec;
  flaky_spec.scenario = "test/flaky";
  flaky_spec.on_failure = lab::FailurePolicy::skip();
  // Poison replicate 0: the surviving replicate 1 must anchor labels and
  // shapes exactly as in the unfailed run.
  poisoned_seeds() = {lab::cell_seed(flaky_spec.seed, 0)};

  const auto clean = lab::run_experiment(clean_spec);
  const auto partial = lab::run_experiment(flaky_spec);
  poisoned_seeds().clear();

  ASSERT_EQ(partial.cells.size(), 2u);
  EXPECT_EQ(partial.cells[0].status.state, core::CellState::kSkipped);
  EXPECT_EQ(partial.cells[0].status.attempts, 1u);
  expect_message_names(
      std::runtime_error(partial.cells[0].status.error),
      "injected infrastructure fault");
  EXPECT_TRUE(partial.cells[1].status.ok());

  const core::CompletionManifest manifest = partial.manifest();
  EXPECT_EQ(manifest.cells, 2u);
  EXPECT_EQ(manifest.ok, 1u);
  EXPECT_EQ(manifest.skipped, 1u);
  EXPECT_FALSE(manifest.complete());

  // Acceptance seam: every estimator's surviving replicate is
  // bit-identical to the unfailed run; the skipped slot is null.
  ASSERT_EQ(partial.estimates.size(), clean.estimates.size());
  for (std::size_t e = 0; e < partial.estimates.size(); ++e) {
    SCOPED_TRACE(clean.estimates[e].estimator);
    ASSERT_EQ(partial.estimates[e].names, clean.estimates[e].names);
    for (std::size_t r = 0; r < partial.estimates[e].rows.size(); ++r) {
      const auto& failed_row = partial.estimates[e].rows[r];
      const auto& clean_row = clean.estimates[e].rows[r];
      ASSERT_EQ(failed_row.replicates.size(), clean_row.replicates.size());
      // Replicate 0 (skipped world): null estimate.
      EXPECT_EQ(failed_row.replicates[0].estimate, 0.0);
      EXPECT_EQ(failed_row.replicates[0].p_value, 1.0);
      EXPECT_FALSE(failed_row.replicates[0].significant);
      // Replicate 1 (survivor): bit-identical.
      EXPECT_EQ(failed_row.replicates[1].estimate,
                clean_row.replicates[1].estimate);
      EXPECT_EQ(failed_row.replicates[1].std_error,
                clean_row.replicates[1].std_error);
      EXPECT_EQ(failed_row.replicates[1].ci_low,
                clean_row.replicates[1].ci_low);
      EXPECT_EQ(failed_row.replicates[1].ci_high,
                clean_row.replicates[1].ci_high);
      EXPECT_EQ(failed_row.replicates[1].p_value,
                clean_row.replicates[1].p_value);
    }
  }
}

TEST(FailurePolicy, RetryRecoversWithDeterministicSeeds) {
  lab::ExperimentSpec spec = synthetic_spec("test/flaky");
  spec.on_failure = lab::FailurePolicy::retry(3);
  const std::uint64_t base = lab::cell_seed(spec.seed, 0);
  poisoned_seeds() = {base};

  util::Runner serial(1);
  util::Runner pool(4);
  const auto report = lab::run_experiment(spec, serial);
  const auto reportN = lab::run_experiment(spec, pool);
  poisoned_seeds().clear();

  EXPECT_TRUE(report.cells[0].status.ok());
  EXPECT_EQ(report.cells[0].status.attempts, 2u);
  EXPECT_EQ(report.cells[0].seed, stats::substream_seed(base, 1));
  EXPECT_EQ(report.cells[1].status.attempts, 1u);
  EXPECT_TRUE(report.manifest().complete());
  EXPECT_EQ(report.manifest().attempts, 3u);

  // Retry is part of the determinism contract: 1 vs 4 threads agree on
  // statuses, seeds, and data.
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].seed, reportN.cells[i].seed);
    EXPECT_EQ(report.cells[i].status.attempts,
              reportN.cells[i].status.attempts);
    EXPECT_EQ(report.cells[i].status.state, reportN.cells[i].status.state);
  }
}

TEST(FailurePolicy, RetryExhaustionMarksTheCellFailed) {
  lab::ExperimentSpec spec = synthetic_spec("test/flaky");
  spec.estimators = {"naive/ab"};
  spec.on_failure = lab::FailurePolicy::retry(2);
  const std::uint64_t base = lab::cell_seed(spec.seed, 1);
  poisoned_seeds() = {base, stats::substream_seed(base, 1)};
  const auto report = lab::run_experiment(spec);
  poisoned_seeds().clear();

  EXPECT_EQ(report.cells[1].status.state, core::CellState::kFailed);
  EXPECT_EQ(report.cells[1].status.attempts, 2u);
  EXPECT_EQ(report.manifest().failed, 1u);
  // The surviving replicate still produced estimates.
  const auto& table = report.estimates_for("naive/ab");
  ASSERT_FALSE(table.rows.empty());
  EXPECT_NE(table.rows[0].replicates[0].p_value, 1.0);
}

TEST(FailurePolicy, AllCellsFailedStillYieldsNamedEmptyTables) {
  lab::ExperimentSpec spec = synthetic_spec("test/flaky");
  spec.replicates = 1;
  spec.estimators = {"naive/ab", "guardrail/srm"};
  spec.on_failure = lab::FailurePolicy::skip();
  poisoned_seeds() = {lab::cell_seed(spec.seed, 0)};
  const auto report = lab::run_experiment(spec);
  poisoned_seeds().clear();

  EXPECT_EQ(report.first_ok_cell(), nullptr);
  ASSERT_EQ(report.estimates.size(), 2u);
  EXPECT_TRUE(report.estimates_for("naive/ab").rows.empty());
  EXPECT_TRUE(report.estimates_for("guardrail/srm").rows.empty());
}

TEST(FailurePolicy, FailFastCancelsNotYetStartedCellsPromptly) {
  // Serial runner: cells run strictly in index order, so the number of
  // source runs after a poisoned cell is exact — the stop token must
  // cancel every cell after the failing one, not "eventually".
  util::Runner serial(1);
  lab::ExperimentSpec spec = synthetic_spec("test/flaky");
  spec.replicates = 6;
  const auto runs_until_abort = [&](std::size_t poison_index) {
    poisoned_seeds() = {lab::cell_seed(spec.seed, poison_index)};
    const std::uint64_t before = test_source_runs().load();
    EXPECT_THROW(lab::run_experiment(spec, serial), std::runtime_error);
    poisoned_seeds().clear();
    return test_source_runs().load() - before;
  };
  EXPECT_EQ(runs_until_abort(0), 1u);  // cells 1..5 never started
  EXPECT_EQ(runs_until_abort(3), 4u);  // cells 0..2 ran, 4..5 cancelled

  // Threaded: in-flight cells may finish (never torn), but the stop still
  // lands and the first error is still the one rethrown.
  util::Runner pool(4);
  poisoned_seeds() = {lab::cell_seed(spec.seed, 0)};
  try {
    lab::run_experiment(spec, pool);
    FAIL() << "expected the poisoned cell to abort the sweep";
  } catch (const std::runtime_error& e) {
    expect_message_names(e, "injected infrastructure fault");
  }
  poisoned_seeds().clear();
}

// --------------------------------------------------------- work budgets ----

TEST(Budget, BackendBudgetsTripNamingTheirUnitsAndCaps) {
  // Each backend counts its own simulated-work currency; a tiny cap must
  // trip from the main loop with the backend and unit named (and the cap
  // carried on the exception), never hang.
  const auto expect_trips = [](const char* scenario, const char* unit,
                               std::uint64_t cap) {
    SCOPED_TRACE(scenario);
    lab::SourceOptions opt;
    opt.duration_scale = 0.02;
    opt.budget.max_work_units = cap;
    const auto source = lab::make_scenario(scenario, opt);
    try {
      source->run(source->default_allocation(), 7);
      FAIL() << "expected util::BudgetExceeded";
    } catch (const util::BudgetExceeded& e) {
      expect_message_names(e, "work budget exceeded");
      expect_message_names(e, unit);
      EXPECT_EQ(e.limit(), cap);
    }
  };
  expect_trips("dumbbell/two_connections", "events", 500);
  expect_trips("paired_links/experiment", "ticks", 50);
  expect_trips("trace/self_calibration", "rows", 5);
}

TEST(Budget, GenerousBudgetLeavesRunsBitIdentical) {
  // The budget check is one integer compare — it must not perturb a
  // single computed bit of a run that stays under the cap.
  for (const char* scenario :
       {"dumbbell/two_connections", "paired_links/experiment"}) {
    SCOPED_TRACE(scenario);
    lab::SourceOptions plain;
    plain.duration_scale = 0.02;
    lab::SourceOptions capped = plain;
    capped.budget.max_work_units = std::numeric_limits<std::uint64_t>::max();
    const auto a = lab::make_scenario(scenario, plain);
    const auto b = lab::make_scenario(scenario, capped);
    const auto ta = a->run(a->default_allocation(), 11);
    const auto tb = b->run(b->default_allocation(), 11);
    ASSERT_EQ(ta.metrics, tb.metrics);
    for (std::size_t c = 0; c < ta.columns.size(); ++c) {
      ASSERT_EQ(ta.columns[c].size(), tb.columns[c].size());
      for (std::size_t r = 0; r < ta.columns[c].size(); ++r) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ta.columns[c][r].outcome),
                  std::bit_cast<std::uint64_t>(tb.columns[c][r].outcome));
      }
    }
    ASSERT_EQ(ta.aggregates, tb.aggregates);
  }
}

TEST(Budget, ExceededIsTerminalUnderEveryPolicyWithBitIdenticalSurvivors) {
  lab::ExperimentSpec clean_spec = synthetic_spec("test/clean");
  clean_spec.estimators = {"naive/ab"};
  const auto clean = lab::run_experiment(clean_spec);

  for (const lab::FailurePolicy policy :
       {lab::FailurePolicy::fail_fast(), lab::FailurePolicy::skip(),
        lab::FailurePolicy::retry(3)}) {
    SCOPED_TRACE(static_cast<int>(policy.mode));
    lab::ExperimentSpec spec = clean_spec;
    spec.scenario = "test/budget";
    spec.on_failure = policy;
    poisoned_seeds() = {lab::cell_seed(spec.seed, 0)};
    // A blown budget is deterministic, so it never aborts the sweep (even
    // under fail_fast) and never consumes retries.
    const auto report = lab::run_experiment(spec);
    poisoned_seeds().clear();

    EXPECT_EQ(report.cells[0].status.state, core::CellState::kBudgetExceeded);
    EXPECT_EQ(report.cells[0].status.attempts, 1u);
    expect_message_names(std::runtime_error(report.cells[0].status.error),
                         "work budget exceeded");
    EXPECT_TRUE(report.cells[1].status.ok());
    const core::CompletionManifest manifest = report.manifest();
    EXPECT_EQ(manifest.budget_exceeded, 1u);
    EXPECT_FALSE(manifest.complete());

    // The surviving replicate's estimates are bit-identical to the clean
    // run; the budget-exceeded slot degrades to a null estimate.
    ASSERT_EQ(report.estimates.size(), clean.estimates.size());
    for (std::size_t e = 0; e < report.estimates.size(); ++e) {
      ASSERT_EQ(report.estimates[e].names, clean.estimates[e].names);
      for (std::size_t r = 0; r < report.estimates[e].rows.size(); ++r) {
        const auto& capped_row = report.estimates[e].rows[r];
        const auto& clean_row = clean.estimates[e].rows[r];
        ASSERT_EQ(capped_row.replicates.size(), clean_row.replicates.size());
        EXPECT_EQ(capped_row.replicates[0].estimate, 0.0);
        EXPECT_EQ(capped_row.replicates[0].p_value, 1.0);
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(capped_row.replicates[1].estimate),
            std::bit_cast<std::uint64_t>(clean_row.replicates[1].estimate));
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(capped_row.replicates[1].p_value),
            std::bit_cast<std::uint64_t>(clean_row.replicates[1].p_value));
      }
    }
  }
}

// ---------------------------------------------------------- guardrails ----

core::ExperimentReport hand_report(std::vector<core::Observation> rows,
                                   double allocation) {
  core::ExperimentReport report;
  report.allocations = {allocation};
  report.replicates = 1;
  report.cells.resize(1);
  report.cells[0].allocation = allocation;
  report.cells[0].table.add_column("m", std::move(rows));
  return report;
}

std::vector<core::Observation> counted_rows(std::size_t treated,
                                            std::size_t control) {
  std::vector<core::Observation> rows;
  rows.reserve(treated + control);
  for (std::size_t i = 0; i < treated + control; ++i) {
    core::Observation obs;
    obs.unit = i;
    obs.account = i;
    obs.treated = i < treated;
    obs.hour_index = i % 24;
    obs.hour_of_day = static_cast<std::uint16_t>(i % 24);
    obs.outcome = 1.0;
    rows.push_back(obs);
  }
  return rows;
}

TEST(Guardrail, AssessQualityComputesVolumeAndSrm) {
  const auto report = core::assess_quality(
      hand_report(counted_rows(500, 500), 0.5).cells[0].table, 0.5);
  EXPECT_TRUE(report.computed);
  EXPECT_EQ(report.rows, 1000u);
  EXPECT_EQ(report.treated_rows, 500u);
  EXPECT_EQ(report.control_rows, 500u);
  EXPECT_EQ(report.hours_observed, 24u);
  EXPECT_EQ(report.arm_hour_cells, 48u);
  EXPECT_EQ(report.non_finite_outcomes, 0u);
  EXPECT_FALSE(report.srm_flag);
  EXPECT_EQ(report.srm_p_value, 1.0);  // exact balance
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.unusable());

  const auto empty = core::assess_quality(core::ObservationTable{}, 0.5);
  EXPECT_TRUE(empty.unusable());
  EXPECT_FALSE(empty.ok());
}

TEST(Guardrail, SrmFlagsImbalanceAndStaysNullOnCleanWorlds) {
  const auto srm = core::make_estimator("guardrail/srm");
  core::EstimatorOptions options;

  // 900/100 against an intended 50/50 split: unambiguous SRM.
  const auto broken = hand_report(counted_rows(900, 100), 0.5);
  auto rows = srm->estimate_metric(broken, "m", options);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "srm");
  const core::EffectEstimate& flagged = rows[0].replicates[0];
  EXPECT_TRUE(flagged.significant);
  EXPECT_LT(flagged.p_value, 1e-3);
  EXPECT_NEAR(flagged.estimate, 0.4, 1e-12);

  // A clean A/A world through the real pipeline: null.
  lab::ExperimentSpec spec = synthetic_spec("test/clean");
  spec.estimators = {"guardrail/srm"};
  const auto clean = lab::run_experiment(spec);
  for (const auto& row : clean.estimates_for("guardrail/srm").rows) {
    for (const auto& estimate : row.replicates) {
      EXPECT_FALSE(estimate.significant) << row.label;
      EXPECT_GT(estimate.p_value, 1e-3) << row.label;
    }
  }
  // And the pipeline attached a quality report to every OK cell.
  for (const auto& cell : clean.cells) {
    EXPECT_TRUE(cell.quality.computed);
    EXPECT_FALSE(cell.quality.srm_flag);
  }
}

TEST(Guardrail, UnusableTablesAreQuarantinedAsQualityHold) {
  for (const char* scenario : {"test/empty", "test/nan"}) {
    SCOPED_TRACE(scenario);
    lab::ExperimentSpec spec = synthetic_spec(scenario);
    spec.estimators = {"naive/ab", "guardrail/srm"};
    const auto report = lab::run_experiment(spec);
    for (const auto& cell : report.cells) {
      EXPECT_EQ(cell.status.state, core::CellState::kQualityHold);
      EXPECT_FALSE(cell.status.error.empty());
    }
    EXPECT_EQ(report.manifest().quality_hold, report.cells.size());
    EXPECT_FALSE(report.manifest().complete());
    // No OK cell -> named but empty estimate tables, no crash.
    ASSERT_EQ(report.estimates.size(), 2u);
    EXPECT_TRUE(report.estimates_for("naive/ab").rows.empty());
  }
}

// ------------------------------------------------------ degenerate sweeps ----

TEST(Degenerate, EveryEstimatorSurvivesDegenerateReports) {
  // Hand-built pathologies that bypass the pipeline's quality quarantine:
  // estimators must still never crash, and must answer with null rows.
  std::vector<std::pair<std::string, core::ExperimentReport>> cases;
  cases.emplace_back("zero rows", hand_report({}, 0.5));
  {
    auto rows = counted_rows(150, 150);
    for (auto& obs : rows) {
      obs.outcome = std::numeric_limits<double>::quiet_NaN();
    }
    cases.emplace_back("all-NaN outcomes",
                       hand_report(std::move(rows), 0.5));
  }
  cases.emplace_back("single arm", hand_report(counted_rows(0, 300), 0.0));
  {
    // Replicate 0 skipped, replicate 1 fine.
    core::ExperimentReport report;
    report.allocations = {0.5};
    report.replicates = 2;
    report.cells.resize(2);
    report.cells[0].status.state = core::CellState::kSkipped;
    report.cells[1].allocation = 0.5;
    report.cells[1].replicate = 1;
    report.cells[1].table.add_column("m", counted_rows(150, 150));
    cases.emplace_back("skipped replicate 0", std::move(report));
  }

  for (const auto& [label, report] : cases) {
    // The metrics the pipeline's analysis stage runs: the first OK cell's.
    const core::ExperimentCell* first_ok = report.first_ok_cell();
    if (first_ok == nullptr) continue;
    for (const std::string& name : core::estimator_names()) {
      SCOPED_TRACE(label + " through " + name);
      const auto estimator = core::make_estimator(name);
      for (const std::string& metric : first_ok->table.metrics) {
        for (const auto& row : estimator->estimate_metric(report, metric, {})) {
          for (const auto& estimate : row.replicates) {
            EXPECT_TRUE(std::isfinite(estimate.estimate));
            EXPECT_GE(estimate.p_value, 0.0);
            EXPECT_LE(estimate.p_value, 1.0);
          }
        }
      }
    }
  }
}

TEST(Degenerate, HourOfDayPastTheDayYieldsANullTteRow) {
  // A registered source may emit any hour_of_day; the hourly read has 24
  // fixed-effect levels, so a row at hour 24 must null the row, not index
  // past them.
  std::vector<core::Observation> rows;
  for (std::size_t i = 0; i < 480; ++i) {
    core::Observation obs;
    obs.unit = i;
    obs.account = i;
    obs.group = static_cast<std::uint8_t>(i % 2);
    obs.treated = obs.group == core::kMostlyTreatedLink;
    obs.hour_index = i / 2 % 24;
    obs.hour_of_day = static_cast<std::uint16_t>(obs.hour_index);
    obs.outcome =
        10.0 + static_cast<double>(i % 7) + (obs.treated ? 1.0 : 0.0);
    rows.push_back(obs);
  }
  const auto tte = core::make_estimator("paired_link/tte");
  const auto tte_row = [&](const std::vector<core::Observation>& table) {
    for (const auto& row :
         tte->estimate_metric(hand_report(table, 0.5), "m", {})) {
      if (row.label == "tte") return row.replicates.at(0);
    }
    throw std::logic_error("no tte row");
  };
  EXPECT_LT(tte_row(rows).p_value, 1.0);  // the clean table is analyzed

  rows.back().hour_of_day = 24;
  const core::EffectEstimate bad = tte_row(rows);
  EXPECT_EQ(bad.estimate, 0.0);
  EXPECT_EQ(bad.std_error, 0.0);
  EXPECT_EQ(bad.p_value, 1.0);
}

TEST(Degenerate, UnknownMetricThrowsNamingTheAvailableColumns) {
  const auto report = hand_report(counted_rows(150, 150), 0.5);
  for (const std::string& name : core::estimator_names()) {
    SCOPED_TRACE(name);
    const auto estimator = core::make_estimator(name);
    try {
      estimator->estimate_metric(report, "no such metric", {});
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      expect_message_names(e, "no such metric");
      expect_message_names(e, "m");  // the available column is listed
    }
  }
}

}  // namespace
}  // namespace xp
