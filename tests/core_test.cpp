// Experiment framework: analysis pipelines, estimator behaviour on
// synthetic worlds with *known* ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/designs/gradual.h"
#include "core/estimands.h"
#include "core/quantile_effects.h"
#include "core/session_metrics.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "stats/rng.h"

namespace xp::core {
namespace {

// Build a synthetic SUTVA world: outcome = base(hour) + hour shock +
// effect * treated + noise. The hour shock is shared by every session in
// the hour — the within-hour correlation that makes account-level
// standard errors anticonservative (Appendix B / Figure 13).
std::vector<Observation> sutva_world(double effect, double p,
                                     std::uint64_t seed, int days = 3,
                                     int per_hour = 40,
                                     double hour_shock_sd = 0.0) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  std::uint64_t unit = 0;
  for (int day = 0; day < days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double base = 100.0 + 10.0 * std::sin(hour / 24.0 * 6.283) +
                          rng.normal(0.0, hour_shock_sd);
      for (int i = 0; i < per_hour; ++i) {
        Observation obs;
        obs.unit = unit;
        obs.account = unit;
        ++unit;
        obs.treated = rng.bernoulli(p);
        obs.outcome = base + (obs.treated ? effect : 0.0) +
                      rng.normal(0.0, 5.0);
        obs.hour_of_day = hour;
        obs.hour_index = static_cast<std::uint64_t>(day) * 24 + hour;
        obs.day = day;
        rows.push_back(obs);
      }
    }
  }
  return rows;
}

TEST(HourlyFe, RecoversEffectUnderSutva) {
  const auto rows = sutva_world(7.0, 0.5, 11);
  const EffectEstimate estimate = hourly_fe_analysis(rows);
  EXPECT_NEAR(estimate.estimate, 7.0, 1.0);
  EXPECT_TRUE(estimate.significant);
  EXPECT_LT(estimate.ci_low, 7.0);
  EXPECT_GT(estimate.ci_high, 7.0);
}

TEST(HourlyFe, NullEffectNotSignificantUsually) {
  int significant = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const auto rows = sutva_world(0.0, 0.5, 100 + rep);
    significant += hourly_fe_analysis(rows).significant;
  }
  EXPECT_LE(significant, 4);
}

TEST(HourlyFe, HandlesSkewedAllocation) {
  const auto rows = sutva_world(5.0, 0.95, 13);
  const EffectEstimate estimate = hourly_fe_analysis(rows);
  EXPECT_NEAR(estimate.estimate, 5.0, 1.5);
}

TEST(HourlyFe, RelativeUsesControlBaseline) {
  const auto rows = sutva_world(10.0, 0.5, 17);
  const EffectEstimate estimate = hourly_fe_analysis(rows);
  EXPECT_NEAR(estimate.baseline, 100.0, 3.0);
  EXPECT_NEAR(estimate.relative(), 0.10, 0.02);
}

TEST(HourlyFe, TooFewCellsThrows) {
  std::vector<Observation> rows;
  Observation obs;
  rows.push_back(obs);
  EXPECT_THROW(hourly_fe_analysis(rows), std::invalid_argument);
}

TEST(HourlyFe, HourOfDayPastTheDayThrowsNamingTheField) {
  auto rows = sutva_world(0.0, 0.5, 29, 1);
  rows.back().hour_of_day = 24;  // the last row sets its cell's hour
  try {
    hourly_fe_analysis(rows);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hour_of_day"), std::string::npos)
        << e.what();
  }
}

TEST(AccountLevel, RecoversEffect) {
  const auto rows = sutva_world(4.0, 0.5, 19);
  const EffectEstimate estimate = account_level_analysis(rows);
  EXPECT_NEAR(estimate.estimate, 4.0, 0.5);
  EXPECT_TRUE(estimate.significant);
}

TEST(AccountLevel, TighterThanHourlyUnderHourShocks) {
  // Figure 13: with within-hour correlated outcomes (hour-level shocks),
  // account-level intervals are much narrower than the worst-case hourly
  // aggregation — narrower than warranted, which is exactly why the paper
  // aggregates to hours.
  const auto rows = sutva_world(3.0, 0.5, 23, 3, 40, /*hour_shock_sd=*/6.0);
  const EffectEstimate hourly = hourly_fe_analysis(rows);
  const EffectEstimate account = account_level_analysis(rows);
  EXPECT_LT(account.ci_high - account.ci_low,
            hourly.ci_high - hourly.ci_low);
}

TEST(AggregateHourly, CellsAreOrderedAndAveraged) {
  std::vector<Observation> rows;
  for (int i = 0; i < 4; ++i) {
    Observation obs;
    obs.hour_index = i % 2;
    obs.hour_of_day = i % 2;
    obs.treated = i >= 2;
    obs.outcome = i;
    rows.push_back(obs);
  }
  const auto cells = aggregate_hourly(rows);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].hour_index, 0u);
  EXPECT_FALSE(cells[0].treated);
  EXPECT_TRUE(cells[1].treated);
  for (const auto& cell : cells) EXPECT_EQ(cell.sessions, 1u);
}

TEST(ArmMean, SplitsCorrectly) {
  std::vector<Observation> rows(4);
  rows[0].outcome = 1.0;
  rows[1].outcome = 3.0;
  rows[2].outcome = 10.0;
  rows[2].treated = true;
  rows[3].outcome = 20.0;
  rows[3].treated = true;
  EXPECT_DOUBLE_EQ(arm_mean(rows, false), 2.0);
  EXPECT_DOUBLE_EQ(arm_mean(rows, true), 15.0);
}

// Figure benches join two columns of one table by row index (Figure 9
// weights % retransmitted bytes by bytes sent), so every column of a
// metric_table must hold record i's row at index i.
TEST(MetricTable, EveryColumnHoldsTheSameRowAtEachIndex) {
  stats::Rng rng(11);
  std::vector<video::SessionRecord> records(200);
  for (std::size_t i = 0; i < records.size(); ++i) {
    video::SessionRecord& record = records[i];
    record.session_id = 1000 + 7 * i;
    record.account_id = rng.uniform_int(40);
    record.link = static_cast<std::uint8_t>(rng.uniform_int(2));
    record.treated = rng.bernoulli(0.5);
    record.day = static_cast<std::uint32_t>(rng.uniform_int(5));
    record.hour = static_cast<std::uint32_t>(rng.uniform_int(24));
    record.avg_throughput_bps = rng.normal(5e6, 1e6);
    record.retransmit_fraction = rng.uniform(0.0, 0.05);
    record.bytes_sent = rng.normal(1e8, 1e7);
  }
  const ObservationTable table = metric_table(records);
  ASSERT_EQ(table.columns.size(), std::size(kAllMetrics));
  for (const std::vector<Observation>& column : table.columns) {
    ASSERT_EQ(column.size(), records.size());
    for (std::size_t i = 0; i < column.size(); ++i) {
      const video::SessionRecord& record = records[i];
      EXPECT_EQ(column[i].unit, record.session_id);
      EXPECT_EQ(column[i].account, record.account_id);
      EXPECT_EQ(column[i].treated, record.treated);
      EXPECT_EQ(column[i].hour_of_day, record.hour);
      EXPECT_EQ(column[i].hour_index, record.day * 24ull + record.hour);
      EXPECT_EQ(column[i].day, record.day);
      EXPECT_EQ(column[i].group, record.link);
      EXPECT_EQ(column[i].weight, 1.0);
    }
  }
}

// Observation::hour_of_day is 16 bits. An hour that does not fit is
// refused, not wrapped (65539 would read as hour 3); hours past the day
// that do fit are kept exactly, for the hourly guards to null.
TEST(MetricTable, HourPast16BitsThrowsAndWideHoursAreKept) {
  std::vector<video::SessionRecord> records(3);
  records[0].hour = 24;
  records[1].hour = 65535;
  records[2].hour = 7;
  const ObservationTable table = metric_table(records);
  for (const std::vector<Observation>& column : table.columns) {
    ASSERT_EQ(column.size(), records.size());
    EXPECT_EQ(column[0].hour_of_day, 24);
    EXPECT_EQ(column[1].hour_of_day, 65535);
    EXPECT_EQ(column[1].hour_index, 65535u);
    EXPECT_EQ(column[2].hour_of_day, 7);
  }

  records[2].hour = 65539;
  try {
    (void)metric_table(records);
    FAIL() << "hour 65539 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hour"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("65539"), std::string::npos)
        << e.what();
  }
}

// The ladder sorts its arms; a NaN breaks the ordering and an infinity
// has no quantile, so either one is refused with a count rather than
// sorted (the quantile/ladder estimator drops them before calling).
TEST(QuantileLadder, NonFiniteOutcomeThrowsWithCount) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<Observation> rows(40);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].treated = i % 2 == 0;
      rows[i].outcome = static_cast<double>(i);
    }
    rows[7].outcome = bad;
    const double qs[] = {0.5, 0.9};
    try {
      quantile_effect_ladder(rows, qs);
      ADD_FAILURE() << "ladder accepted outcome " << bad;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("1 non-finite"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(EffectEstimate, RelativeHandlesZeroBaseline) {
  EffectEstimate e;
  e.estimate = 5.0;
  EXPECT_DOUBLE_EQ(e.relative(), 0.0);
  e.baseline = 10.0;
  EXPECT_DOUBLE_EQ(e.relative(), 0.5);
}

// --- Gradual deployment on synthetic worlds, through the pipeline ---
//
// Known-truth worlds as test-local DataSources: run(p, seed) draws 4000
// units, each treated w.p. p, into one "outcome" column. A spec sweeps
// them like any registry scenario; gradual/contrast reads every step and
// sutva_tests runs the battery off its rows.

using World = std::vector<Observation> (*)(double p, std::uint64_t seed);

class SyntheticWorld final : public lab::DataSource {
 public:
  explicit SyntheticWorld(World world) : world_(world) {}
  double default_allocation() const noexcept override { return 0.5; }
  lab::ObservationTable run(double p, std::uint64_t seed,
                            util::Runner&) const override {
    lab::ObservationTable table;
    table.add_column("outcome", world_(p, seed));
    return table;
  }

 private:
  World world_;
};

// SUTVA world: constant effect of +5, no interference.
std::vector<Observation> sutva_draw(double p, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  for (int i = 0; i < 4000; ++i) {
    Observation obs;
    obs.unit = i;
    obs.account = i;
    obs.treated = rng.bernoulli(p);
    obs.outcome = 50.0 + (obs.treated ? 5.0 : 0.0) + rng.normal(0.0, 3.0);
    rows.push_back(obs);
  }
  return rows;
}

// Zero-sum congested world: treated units grab share from controls, total
// fixed — the parallel-connections phenomenon in miniature.
std::vector<Observation> zero_sum_draw(double p, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Observation> rows;
  const int n = 4000;
  std::vector<bool> arms(n);
  double weight_total = 0.0;
  for (int i = 0; i < n; ++i) {
    arms[i] = rng.bernoulli(p);
    weight_total += arms[i] ? 2.0 : 1.0;
  }
  const double capacity = 1000.0 * n;
  for (int i = 0; i < n; ++i) {
    Observation obs;
    obs.unit = i;
    obs.account = i;
    obs.treated = arms[i];
    obs.outcome = capacity * (arms[i] ? 2.0 : 1.0) / weight_total +
                  rng.normal(0.0, 20.0);
    rows.push_back(obs);
  }
  return rows;
}

constexpr std::size_t kRampWorlds = 8;

/// Sweep a synthetic world from the pre-deployment p = 0 through
/// {0.1, 0.5, 0.9}, kRampWorlds replicate worlds per step, and read it
/// with gradual/contrast.
EstimateTable gradual_ramp(const char* scenario) {
  static const bool registered = [] {
    const auto add = [](const char* name, World world) {
      lab::register_scenario(name, [world](const lab::SourceOptions&) {
        return std::make_unique<SyntheticWorld>(world);
      });
    };
    add("test/sutva_world", sutva_draw);
    add("test/zero_sum_world", zero_sum_draw);
    return true;
  }();
  (void)registered;
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.allocations = {0.0, 0.1, 0.5, 0.9};
  spec.replicates = kRampWorlds;
  spec.estimators = {"gradual/contrast"};
  spec.seed = 3;
  return lab::run_experiment(spec).estimates_for("gradual/contrast");
}

TEST(Gradual, SutvaWorldShowsNoInterference) {
  const EstimateTable table = gradual_ramp("test/sutva_world");
  std::size_t flagged = 0;
  for (std::size_t r = 0; r < kRampWorlds; ++r) {
    for (const char* step : {"tau@0.1", "tau@0.5", "tau@0.9", "tte"}) {
      EXPECT_NEAR(table.row(std::string("outcome/") + step)
                      .replicates[r]
                      .estimate,
                  5.0, 0.6)
          << step << " in world " << r;
    }
    flagged += sutva_tests(table, "outcome", r).interference_detected;
  }
  // The battery is ~7 tests at the 5% level, so a SUTVA world trips it
  // by chance in roughly a quarter of the worlds — never in most.
  EXPECT_LE(flagged, kRampWorlds / 2);
}

TEST(Gradual, ZeroSumWorldDetectsInterference) {
  const EstimateTable table = gradual_ramp("test/zero_sum_world");
  const auto effect = [&](const char* label, std::size_t r) {
    return table.row(std::string("outcome/") + label).replicates[r];
  };
  for (std::size_t r = 0; r < kRampWorlds; ++r) {
    SCOPED_TRACE(r);
    // The A/B effect looks big at every allocation...
    for (const char* step : {"tau@0.1", "tau@0.5", "tau@0.9"}) {
      EXPECT_GT(effect(step, r).estimate, 200.0) << step;
    }
    // ...but the true TTE is ~0 and spillover is negative and
    // significant. (The ramp tops out at p=0.9, where mu_T = 2/(1.9) of
    // baseline, so the top-step "TTE" legitimately sits ~5% above zero.)
    EXPECT_NEAR(effect("tte", r).relative(), 0.0, 0.07);
    const SutvaTests tests = sutva_tests(table, "outcome", r);
    EXPECT_TRUE(tests.interference_detected);
    EXPECT_GT(tests.significant_spillovers, 0u);
    EXPECT_LT(effect("spillover@0.9", r).estimate, 0.0);
    // tau(p) shrinks as p grows: 2C/n winners dilute.
    EXPECT_GT(effect("tau@0.1", r).estimate, effect("tau@0.9", r).estimate);
  }
}

TEST(Gradual, SutvaTestsSkipNullSteps) {
  // A step too thin to estimate (null row: no standard error) must not
  // count as a tau inequality against the real steps.
  EstimateTable table;
  table.estimator = "gradual/contrast";
  const auto add = [&](const char* label, double allocation, double estimate,
                       double std_error, bool significant) {
    EstimateRow row;
    row.metric = "outcome";
    row.label = label;
    row.allocation = allocation;
    EffectEstimate e;
    e.estimate = estimate;
    e.std_error = std_error;
    e.significant = significant;
    row.replicates.push_back(e);
    table.add_row(std::move(row));
  };
  add("tte", 0.9, 5.0, 0.1, true);
  add("tau@0.1", 0.1, 0.0, 0.0, false);  // null
  add("tau@0.5", 0.5, 5.0, 0.2, true);
  add("spillover@0.5", 0.5, 0.1, 0.2, false);
  add("tau@0.9", 0.9, 5.1, 0.2, true);
  add("spillover@0.9", 0.9, 3.0, 0.2, true);
  const SutvaTests tests = sutva_tests(table, "outcome");
  EXPECT_NEAR(tests.max_tau_inequality_z, 0.1 / std::sqrt(0.08), 1e-12);
  EXPECT_EQ(tests.significant_spillovers, 1u);
  EXPECT_NEAR(tests.max_partial_vs_average_z, 0.1 / std::sqrt(0.05), 1e-12);
  EXPECT_TRUE(tests.interference_detected);
}

}  // namespace
}  // namespace xp::core
