// Fleet worlds (video/fleet.h + lab/fleet_scenarios.h) and the streaming
// hourly-cell aggregation path (core/cell_accumulator.h): the 1M-session
// memory bound, sink-vs-record path identity, shard-merge associativity
// under the fixed fold order, thread-count bit-identity of the merged
// table, streamed-vs-record aggregate parity, and fleet config
// validation/budgeting.
//
// NOTE: the memory-bound test must stay FIRST in this file — getrusage's
// ru_maxrss is a process-lifetime peak, so any earlier allocation-heavy
// test would contaminate the measurement.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/cell_accumulator.h"
#include "core/session_metrics.h"
#include "lab/experiment.h"
#include "lab/fleet_scenarios.h"
#include "lab/registry.h"
#include "util/runner.h"
#include "video/cluster.h"
#include "video/fleet.h"

namespace xp {
namespace {

// Sanitizer builds run Debug with heavy instrumentation: the full-scale
// fleet day would dominate the suite budget, and ASan's shadow memory
// makes the RSS bound meaningless — the big test covers Release only.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// Bit-exact double equality (NaN payloads included) — the structs have
/// padding, so memcmp over whole records would compare garbage bytes.
void expect_bits_eq(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_record_eq(const video::SessionRecord& a,
                      const video::SessionRecord& b, std::size_t i) {
  const std::string at = "record " + std::to_string(i);
  EXPECT_EQ(a.session_id, b.session_id) << at;
  EXPECT_EQ(a.account_id, b.account_id) << at;
  EXPECT_EQ(a.link, b.link) << at;
  EXPECT_EQ(a.treated, b.treated) << at;
  EXPECT_EQ(a.day, b.day) << at;
  EXPECT_EQ(a.hour, b.hour) << at;
  expect_bits_eq(a.start_time, b.start_time, at + " start_time");
  expect_bits_eq(a.duration, b.duration, at + " duration");
  expect_bits_eq(a.avg_throughput_bps, b.avg_throughput_bps,
                 at + " throughput");
  expect_bits_eq(a.min_rtt, b.min_rtt, at + " min_rtt");
  expect_bits_eq(a.mean_rtt, b.mean_rtt, at + " mean_rtt");
  expect_bits_eq(a.retransmit_fraction, b.retransmit_fraction,
                 at + " retransmit_fraction");
  expect_bits_eq(a.bytes_sent, b.bytes_sent, at + " bytes_sent");
  expect_bits_eq(a.play_delay, b.play_delay, at + " play_delay");
  EXPECT_EQ(a.cancelled_start, b.cancelled_start) << at;
  expect_bits_eq(a.avg_bitrate_bps, b.avg_bitrate_bps, at + " bitrate");
  expect_bits_eq(a.perceptual_quality, b.perceptual_quality, at + " pq");
  EXPECT_EQ(a.rebuffer_count, b.rebuffer_count) << at;
  expect_bits_eq(a.rebuffer_seconds, b.rebuffer_seconds,
                 at + " rebuffer_seconds");
  EXPECT_EQ(a.had_rebuffer, b.had_rebuffer) << at;
  EXPECT_EQ(a.bitrate_switches, b.bitrate_switches) << at;
  expect_bits_eq(a.stability, b.stability, at + " stability");
}

void expect_observation_eq(const core::Observation& a,
                           const core::Observation& b,
                           const std::string& at) {
  EXPECT_EQ(a.unit, b.unit) << at;
  EXPECT_EQ(a.account, b.account) << at;
  EXPECT_EQ(a.treated, b.treated) << at;
  expect_bits_eq(a.outcome, b.outcome, at + " outcome");
  EXPECT_EQ(a.hour_of_day, b.hour_of_day) << at;
  EXPECT_EQ(a.hour_index, b.hour_index) << at;
  EXPECT_EQ(a.day, b.day) << at;
  EXPECT_EQ(a.group, b.group) << at;
  expect_bits_eq(a.weight, b.weight, at + " weight");
}

void expect_tables_identical(const core::ObservationTable& a,
                             const core::ObservationTable& b) {
  ASSERT_EQ(a.metrics, b.metrics);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (std::size_t c = 0; c < a.columns.size(); ++c) {
    ASSERT_EQ(a.columns[c].size(), b.columns[c].size()) << a.metrics[c];
    for (std::size_t r = 0; r < a.columns[c].size(); ++r) {
      expect_observation_eq(a.columns[c][r], b.columns[c][r],
                            a.metrics[c] + " row " + std::to_string(r));
    }
  }
  ASSERT_EQ(a.aggregate_names, b.aggregate_names);
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
  for (std::size_t i = 0; i < a.aggregates.size(); ++i) {
    expect_bits_eq(a.aggregates[i], b.aggregates[i], a.aggregate_names[i]);
  }
  ASSERT_EQ(a.series_names, b.series_names);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    ASSERT_EQ(a.series[s].size(), b.series[s].size()) << a.series_names[s];
    for (std::size_t v = 0; v < a.series[s].size(); ++v) {
      expect_bits_eq(a.series[s][v], b.series[s][v],
                     a.series_names[s] + "[" + std::to_string(v) + "]");
    }
  }
}

// ---- 1M-session fleet day through the full pipeline, bounded memory ----

TEST(FleetScale, MillionSessionDayStaysUnderMemoryBound) {
  if (kSanitized) {
    GTEST_SKIP() << "full-scale fleet day is a Release-only test";
  }
  lab::ExperimentSpec spec;
  spec.scenario = "fleet/experiment";
  spec.estimators = {"paired_link/tte"};
  spec.seed = 77;

  const lab::ExperimentReport report = lab::run_experiment(spec);

  ASSERT_EQ(report.cells.size(), 1u);
  const lab::ExperimentCell& cell = report.cells[0];
  ASSERT_TRUE(cell.status.ok()) << cell.status.error;
  EXPECT_GE(cell.table.aggregate("shards"), 32.0);
  EXPECT_GE(cell.table.aggregate("sessions_started"), 1'000'000.0);

  // The estimator stack consumed the merged sketch table.
  ASSERT_FALSE(report.estimates.empty());
  ASSERT_FALSE(report.estimates[0].rows.empty());
  bool finite_estimate = false;
  for (const auto& row : report.estimates[0].rows) {
    for (const auto& e : row.replicates) {
      if (std::isfinite(e.estimate)) finite_estimate = true;
    }
  }
  EXPECT_TRUE(finite_estimate);

  // Peak memory is O(shards x hours x metrics), not O(sessions): the
  // record path's per-session vectors alone would cost >1M x
  // sizeof(SessionRecord) per in-flight copy, and the 12 extracted
  // metric columns several times that.
  EXPECT_LT(peak_rss_kb(), 400L * 1024L)
      << "fleet day materialized per-session state";
}

// ---- sink path produces bit-identical records to the record path ----

TEST(FleetStreaming, SinkPathMatchesRecordPathBitForBit) {
  video::ClusterConfig config;
  config.days = 0.1;
  config.seed = 321;
  // Exercise the per-record telemetry fate in the emit path too.
  config.faults.telemetry.drop_probability = 0.05;
  config.faults.telemetry.corrupt_probability = 0.03;

  const video::ClusterResult record = video::run_paired_links(config);
  std::vector<video::SessionRecord> streamed;
  const video::ClusterResult stream = video::run_paired_links(
      config, [&](const video::SessionRecord& r) { streamed.push_back(r); });

  EXPECT_TRUE(stream.sessions.empty());
  ASSERT_EQ(streamed.size(), record.sessions.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    expect_record_eq(streamed[i], record.sessions[i], i);
  }
  EXPECT_EQ(stream.stats.sessions_started, record.stats.sessions_started);
  EXPECT_EQ(stream.stats.sessions_completed, record.stats.sessions_completed);
  EXPECT_EQ(stream.stats.records_dropped, record.stats.records_dropped);
  EXPECT_GT(stream.stats.records_dropped, 0u);
  EXPECT_EQ(stream.stats.records_corrupted, record.stats.records_corrupted);
  EXPECT_GT(stream.stats.records_corrupted, 0u);
  for (int l = 0; l < 2; ++l) {
    ASSERT_EQ(stream.hourly_utilization[l], record.hourly_utilization[l]);
    ASSERT_EQ(stream.hourly_rtt[l], record.hourly_rtt[l]);
  }
}

// ---- shard-merge associativity under the fixed fold order ----

std::vector<core::CellAccumulator> shard_sketches(
    const video::FleetConfig& fleet, std::size_t hours) {
  std::vector<core::CellAccumulator> sketches;
  for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
    core::CellAccumulator sketch(hours);
    video::run_paired_links(
        video::shard_cluster_config(fleet, s),
        [&sketch](const video::SessionRecord& r) { sketch.add(r); });
    sketches.push_back(std::move(sketch));
  }
  return sketches;
}

TEST(FleetStreaming, ShardMergeIsAssociativeAndFoldOrderIsCanonical) {
  video::FleetConfig fleet = lab::canonical_heterogeneous_fleet_config();
  fleet.base.days = 0.08;
  fleet.shards.resize(4);
  const std::size_t hours =
      static_cast<std::size_t>(fleet.base.days * 24.0) + 1;
  const auto sketches = shard_sketches(fleet, hours);

  // ((0+1)+2)+3 — the canonical left fold run_fleet uses.
  core::CellAccumulator left(hours);
  for (const auto& s : sketches) left.merge(s);
  // 0+((1+2)+3) — a different grouping.
  core::CellAccumulator tail(hours);
  tail.merge(sketches[1]);
  tail.merge(sketches[2]);
  tail.merge(sketches[3]);
  core::CellAccumulator right(hours);
  right.merge(sketches[0]);
  right.merge(tail);

  EXPECT_EQ(left.sessions(), right.sessions());
  std::size_t nonempty_cells = 0;
  for (std::size_t h = 0; h < hours; ++h) {
    for (bool treated : {false, true}) {
      for (int link : {0, 1}) {
        for (core::Metric metric : core::kAllMetrics) {
          const auto a = left.cell_stats(h, treated, link, metric);
          const auto b = right.cell_stats(h, treated, link, metric);
          // Counts are integers: exactly associative.
          EXPECT_EQ(a.count, b.count);
          EXPECT_EQ(a.nan_count, b.nan_count);
          // FP sums may differ by grouping — within rounding only.
          EXPECT_NEAR(a.sum, b.sum, 1e-9 * (1.0 + std::fabs(a.sum)));
          if (a.count > 0) ++nonempty_cells;
        }
      }
    }
  }
  EXPECT_GT(nonempty_cells, 0u);

  // The canonical fold re-run is bit-identical, not merely close.
  core::CellAccumulator again(hours);
  for (const auto& s : sketches) again.merge(s);
  expect_tables_identical(left.to_table(), again.to_table());

  // Merging mismatched horizons is refused, not silently truncated.
  core::CellAccumulator wrong(hours + 1);
  EXPECT_THROW(wrong.merge(left), std::invalid_argument);
}

// ---- merged fleet table is bit-identical at 1 vs 4 threads ----

TEST(FleetDeterminism, MergedTableBitIdenticalAcrossThreadCounts) {
  video::FleetConfig fleet = lab::canonical_heterogeneous_fleet_config();
  fleet.base.days = 0.08;

  util::Runner serial(1);
  util::Runner parallel(4);
  const core::ObservationTable a = lab::run_fleet(fleet, serial);
  const core::ObservationTable b = lab::run_fleet(fleet, parallel);
  expect_tables_identical(a, b);
  EXPECT_DOUBLE_EQ(a.aggregate("shards"),
                   static_cast<double>(fleet.shards.size()));
  EXPECT_GT(a.aggregate("sessions_started"), 0.0);
}

TEST(FleetDeterminism, ExperimentPipelineBitIdenticalAcrossThreadCounts) {
  lab::ExperimentSpec spec;
  spec.scenario = "fleet/heterogeneous";
  spec.tuning.duration_scale = 0.05;
  spec.estimators = {"paired_link/tte", "guardrail/srm"};
  spec.seed = 11;

  util::Runner serial(1);
  util::Runner parallel(4);
  const lab::ExperimentReport a = lab::run_experiment(spec, serial);
  const lab::ExperimentReport b = lab::run_experiment(spec, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_TRUE(a.cells[i].status.ok()) << a.cells[i].status.error;
    expect_tables_identical(a.cells[i].table, b.cells[i].table);
  }
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    ASSERT_EQ(a.estimates[t].rows.size(), b.estimates[t].rows.size());
    for (std::size_t r = 0; r < a.estimates[t].rows.size(); ++r) {
      const auto& ra = a.estimates[t].rows[r];
      const auto& rb = b.estimates[t].rows[r];
      ASSERT_EQ(ra.replicates.size(), rb.replicates.size());
      for (std::size_t k = 0; k < ra.replicates.size(); ++k) {
        const std::string at = a.estimates[t].names[r];
        expect_bits_eq(ra.replicates[k].estimate, rb.replicates[k].estimate,
                       at + " estimate");
        expect_bits_eq(ra.replicates[k].std_error, rb.replicates[k].std_error,
                       at + " std_error");
      }
    }
  }
}

// ---- streamed single-cluster aggregates match the record path ----

TEST(FleetStreaming, StreamedHourlyCellsMatchRecordPath) {
  video::ClusterConfig config;
  config.days = 0.1;
  config.seed = 55;

  const video::ClusterResult record = video::run_paired_links(config);
  const std::size_t hours = static_cast<std::size_t>(config.days * 24.0) + 1;
  core::CellAccumulator sketch(hours);
  video::run_paired_links(
      config, [&sketch](const video::SessionRecord& r) { sketch.add(r); });
  ASSERT_EQ(sketch.sessions(), record.sessions.size());
  ASSERT_GT(record.sessions.size(), 100u);

  // Per-cell count and sum straight from the raw records, per metric:
  // counts survive binning exactly, sums to rounding.
  for (core::Metric metric :
       {core::Metric::kThroughput, core::Metric::kPlayDelay,
        core::Metric::kRebufferCount, core::Metric::kCancelledStart}) {
    std::map<std::tuple<std::size_t, bool, int>, std::pair<double, double>>
        cells;  // (hour, arm, link) -> (sum, count)
    for (const video::SessionRecord& r : record.sessions) {
      const double v = core::metric_value(r, metric);
      if (!std::isfinite(v)) continue;
      auto& [sum, count] =
          cells[{static_cast<std::size_t>(r.day) * 24 + r.hour, r.treated,
                 static_cast<int>(r.link)}];
      sum += v;
      count += 1.0;
    }
    ASSERT_FALSE(cells.empty());
    for (const auto& [key, agg] : cells) {
      const auto [hour, treated, link] = key;
      const auto stats = sketch.cell_stats(hour, treated, link, metric);
      EXPECT_EQ(static_cast<double>(stats.count), agg.second);
      EXPECT_NEAR(stats.sum, agg.first, 1e-9 * (1.0 + std::fabs(agg.first)));
    }
  }

  // The estimator-facing view: weighted hourly cells of the sketch table
  // reproduce the record table's cell means and true session counts.
  const core::ObservationTable streamed_table = sketch.to_table();
  const std::string_view throughput =
      core::metric_name(core::Metric::kThroughput);
  const auto record_cells = core::aggregate_hourly(
      core::metric_table(record.sessions).column(throughput));
  const auto streamed_cells =
      core::aggregate_hourly(streamed_table.column(throughput));
  ASSERT_EQ(record_cells.size(), streamed_cells.size());
  for (std::size_t i = 0; i < record_cells.size(); ++i) {
    EXPECT_EQ(record_cells[i].hour_index, streamed_cells[i].hour_index);
    EXPECT_EQ(record_cells[i].treated, streamed_cells[i].treated);
    // Streamed weight = true session count behind the cell.
    EXPECT_DOUBLE_EQ(streamed_cells[i].weight,
                     static_cast<double>(record_cells[i].sessions));
    EXPECT_NEAR(streamed_cells[i].mean_outcome, record_cells[i].mean_outcome,
                1e-9 * (1.0 + std::fabs(record_cells[i].mean_outcome)));
  }
}

TEST(FleetStreaming, RegistryFleetTableIsAWeightedSketch) {
  lab::ExperimentSpec spec;
  spec.scenario = "fleet/heterogeneous";
  spec.tuning.duration_scale = 0.02;
  spec.estimators = {"paired_link/tte"};
  const lab::ExperimentReport report = lab::run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_TRUE(report.cells[0].status.ok()) << report.cells[0].status.error;
  const core::ObservationTable& table = report.cells[0].table;
  // Sketch tables carry bin rows, not session rows: weights exceed 1 and
  // the row count is far below the session count.
  const auto& rows = table.column("avg throughput");
  ASSERT_FALSE(rows.empty());
  double max_weight = 0.0;
  for (const auto& row : rows) max_weight = std::max(max_weight, row.weight);
  EXPECT_GT(max_weight, 1.0);
  const double sessions = table.aggregate("sessions_started");
  EXPECT_GT(sessions, 0.0);
  EXPECT_LT(static_cast<double>(rows.size()), sessions);
  // The estimators read the sketch table through the hourly pipeline.
  const auto& tte =
      report.estimates_for("paired_link/tte").row("avg throughput/tte");
  ASSERT_EQ(tte.replicates.size(), 1u);
  EXPECT_TRUE(std::isfinite(tte.replicates[0].estimate));
}

// ---- fleet config validation, phase rotation, budget ----

TEST(FleetConfigTest, ValidationNamesTheOffendingShard) {
  video::FleetConfig fleet = lab::canonical_fleet_config(2);
  fleet.shards[1].demand_scale = -1.0;
  EXPECT_THROW(video::validate(fleet), std::invalid_argument);

  fleet = lab::canonical_fleet_config(2);
  fleet.shards[0].uhd_tilt = 0.9;  // mobile_fraction would go negative
  EXPECT_THROW(video::validate(fleet), std::invalid_argument);

  fleet = lab::canonical_fleet_config(1);
  fleet.shards.clear();
  EXPECT_THROW(video::validate(fleet), std::invalid_argument);

  EXPECT_NO_THROW(video::validate(lab::canonical_fleet_config(32)));
  EXPECT_NO_THROW(
      video::validate(lab::canonical_heterogeneous_fleet_config()));
}

TEST(FleetConfigTest, PhaseRotationShiftsTheDiurnalCurve) {
  video::FleetConfig fleet;
  fleet.base = lab::canonical_experiment_config();
  video::ShardConfig shard;
  shard.demand_phase_hours = 5;
  fleet.shards.push_back(shard);
  const video::ClusterConfig rotated = video::shard_cluster_config(fleet, 0);
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(
        rotated.demand.hourly_shape[static_cast<std::size_t>(h)],
        fleet.base.demand.hourly_shape[static_cast<std::size_t>(
            (h - 5 + 24) % 24)]);
  }
  // Seeds are per-shard substreams, not the base seed.
  EXPECT_NE(rotated.seed, fleet.base.seed);
}

TEST(FleetConfigTest, FleetBudgetIsTicksSummedAcrossShards) {
  lab::ExperimentSpec spec;
  spec.scenario = "fleet/heterogeneous";
  spec.tuning.duration_scale = 0.02;
  // 8 shards x ~1728 ticks each: a 1000-tick fleet budget cannot fit.
  spec.tuning.budget.max_work_units = 1000;
  const lab::ExperimentReport report = lab::run_experiment(spec);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].status.state, core::CellState::kBudgetExceeded);

  // A budget covering the summed ticks passes untouched.
  spec.tuning.budget.max_work_units = 20'000;
  const lab::ExperimentReport ok = lab::run_experiment(spec);
  ASSERT_EQ(ok.cells.size(), 1u);
  EXPECT_TRUE(ok.cells[0].status.ok()) << ok.cells[0].status.error;
}

TEST(FleetConfigTest, FleetSourceFingerprintDistinguishesShardConfigs) {
  lab::SourceOptions options;
  options.duration_scale = 0.05;
  const auto a = lab::make_scenario("fleet/experiment", options);
  const auto b = lab::make_scenario("fleet/heterogeneous", options);
  EXPECT_NE(a->config_fingerprint(), 0u);
  EXPECT_NE(b->config_fingerprint(), 0u);
  EXPECT_NE(a->config_fingerprint(), b->config_fingerprint());
}

}  // namespace
}  // namespace xp
