// The trace layer: schema validation, codec round trips and malformed-input
// errors (naming line and field), replay determinism and truncation, and
// the export -> replay calibration loop against a direct simulation run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session_metrics.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "trace/codec.h"
#include "trace/replay.h"
#include "trace/schema.h"
#include "trace/writer.h"
#include "util/runner.h"

namespace xp {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// A deterministic synthetic row; `i` perturbs every field so round-trip
/// bugs that swap or truncate columns cannot cancel out.
trace::TraceRecord make_record(std::uint64_t i, std::uint8_t link,
                               std::uint8_t treated) {
  trace::TraceRecord r;
  r.session_id = 1000 + i;
  r.account_id = 77 + i / 3;
  r.link = link;
  r.treated = treated;
  r.day = static_cast<std::uint32_t>(i / 24);
  r.hour = static_cast<std::uint32_t>(i % 24);
  r.arrival_s = 3600.0 * static_cast<double>(i) + 0.125;
  r.duration_s = 600.0 + static_cast<double>(i);
  r.device = static_cast<std::uint8_t>(i % 4);
  r.startup_delay_s = 1.5 + 0.01 * static_cast<double>(i);
  r.cancelled_start = i % 7 == 0;
  r.rebuffer_count = static_cast<std::uint32_t>(i % 3);
  r.rebuffer_s = 0.25 * static_cast<double>(i % 3);
  r.had_rebuffer = i % 3 != 0;
  r.mean_bitrate_bps = 3.0e6 + 1000.0 * static_cast<double>(i);
  r.perceptual_quality = 80.0 + 0.1 * static_cast<double>(i % 100);
  r.quality_integral = r.perceptual_quality * r.duration_s;
  r.throughput_bps = 5.0e6 + static_cast<double>(i);
  r.min_rtt_s = 0.020 + 1e-4 * static_cast<double>(i % 50);
  r.mean_rtt_s = r.min_rtt_s + 0.005;
  r.retransmit_fraction = 0.001 * static_cast<double>(i % 9);
  r.bytes_sent = 1.0e8 + 1.0e5 * static_cast<double>(i);
  r.bitrate_switches = static_cast<std::uint32_t>(i % 5);
  r.stability = 1.0 / (1.0 + static_cast<double>(i % 5));
  return r;
}

trace::TraceLog make_log(std::size_t rows) {
  trace::TraceLog log;
  log.meta.source = "unit/test";
  log.meta.allocation = 0.95;
  log.meta.intended_treated_fraction = 0.5072;
  log.meta.seed = 9;
  log.meta.horizon_s = 3600.0 * static_cast<double>(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    log.records.push_back(make_record(i, i % 2, (i / 2) % 2));
  }
  return log;
}

void expect_records_bitwise_equal(const trace::TraceRecord& a,
                                  const trace::TraceRecord& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.account_id, b.account_id);
  EXPECT_EQ(a.link, b.link);
  EXPECT_EQ(a.treated, b.treated);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.hour, b.hour);
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.cancelled_start, b.cancelled_start);
  EXPECT_EQ(a.rebuffer_count, b.rebuffer_count);
  EXPECT_EQ(a.had_rebuffer, b.had_rebuffer);
  EXPECT_EQ(a.bitrate_switches, b.bitrate_switches);
  // Doubles compare as bit patterns so NaN telemetry round-trips too.
  for (auto pair : {std::pair{a.arrival_s, b.arrival_s},
                    {a.duration_s, b.duration_s},
                    {a.startup_delay_s, b.startup_delay_s},
                    {a.rebuffer_s, b.rebuffer_s},
                    {a.mean_bitrate_bps, b.mean_bitrate_bps},
                    {a.perceptual_quality, b.perceptual_quality},
                    {a.quality_integral, b.quality_integral},
                    {a.throughput_bps, b.throughput_bps},
                    {a.min_rtt_s, b.min_rtt_s},
                    {a.mean_rtt_s, b.mean_rtt_s},
                    {a.retransmit_fraction, b.retransmit_fraction},
                    {a.bytes_sent, b.bytes_sent},
                    {a.stability, b.stability}}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pair.first),
              std::bit_cast<std::uint64_t>(pair.second));
  }
}

trace::TraceLog round_trip(const trace::TraceLog& log,
                           trace::TraceFormat format) {
  std::stringstream buffer;
  trace::write_trace(buffer, log, format);
  return trace::read_trace(buffer, format);
}

void expect_logs_equal(const trace::TraceLog& a, const trace::TraceLog& b) {
  EXPECT_EQ(a.meta.schema, b.meta.schema);
  EXPECT_EQ(a.meta.source, b.meta.source);
  EXPECT_EQ(a.meta.allocation, b.meta.allocation);
  EXPECT_EQ(a.meta.intended_treated_fraction,
            b.meta.intended_treated_fraction);
  EXPECT_EQ(a.meta.seed, b.meta.seed);
  EXPECT_EQ(a.meta.horizon_s, b.meta.horizon_s);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    expect_records_bitwise_equal(a.records[i], b.records[i]);
  }
}

// ----------------------------------------------------------------- codecs ----

TEST(TraceCodec, CsvRoundTripIsLossless) {
  auto log = make_log(60);
  log.records[7].min_rtt_s = kNan;  // corrupted telemetry survives
  log.records[7].throughput_bps = kNan;
  expect_logs_equal(log, round_trip(log, trace::TraceFormat::kCsv));
}

TEST(TraceCodec, BinaryRoundTripIsLossless) {
  auto log = make_log(60);
  log.records[3].mean_bitrate_bps = kNan;
  expect_logs_equal(log, round_trip(log, trace::TraceFormat::kBinary));
}

TEST(TraceCodec, CsvAndBinaryAgree) {
  const auto log = make_log(40);
  expect_logs_equal(round_trip(log, trace::TraceFormat::kCsv),
                    round_trip(log, trace::TraceFormat::kBinary));
}

TEST(TraceCodec, EmptyLogRoundTrips) {
  const auto log = make_log(0);
  EXPECT_TRUE(round_trip(log, trace::TraceFormat::kCsv).records.empty());
  EXPECT_TRUE(round_trip(log, trace::TraceFormat::kBinary).records.empty());
}

/// Serialize, corrupt one token, expect a message containing every one of
/// `needles`.
void expect_csv_error(const std::string& from, const std::string& to,
                      const std::vector<std::string>& needles) {
  std::ostringstream out;
  trace::write_trace(out, make_log(5), trace::TraceFormat::kCsv);
  std::string text = out.str();
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << "token '" << from << "' not in output";
  text.replace(at, from.size(), to);
  std::istringstream in(text);
  try {
    trace::read_trace(in, trace::TraceFormat::kCsv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << message;
    }
  }
}

TEST(TraceCodec, MalformedCsvValueNamesLineAndField) {
  // Row 0 prints duration_s as "600"; line 1 is the magic, lines 2-6 the
  // metadata, line 7 the header, line 8 the first data row.
  expect_csv_error("600,", "sixhundred,",
                   {"line 8", "duration_s", "sixhundred"});
  // Unsigned columns take plain decimal digits only: no whitespace, no
  // sign (" -5" must not wrap around), no saturation on overflow.
  expect_csv_error("\n1000,77,", "\n -5,77,", {"line 8", "session_id", " -5"});
  expect_csv_error("\n1000,77,", "\n1000,18446744073709551616,",
                   {"line 8", "account_id", "18446744073709551616"});
  expect_csv_error("\n1000,77,0,", "\n1000,77,+0,",
                   {"line 8", "'link'", "+0"});
  expect_csv_error("#seed=9", "#seed= 9", {"seed", " 9"});
}

TEST(TraceCodec, MalformedCsvHeaderNamesColumn) {
  expect_csv_error("arrival_s", "arrivial_s",
                   {"line 7", "column 7", "arrival_s", "arrivial_s"});
}

TEST(TraceCodec, CsvFieldCountMismatchNamesLine) {
  std::ostringstream out;
  trace::write_trace(out, make_log(3), trace::TraceFormat::kCsv);
  std::istringstream in(out.str() + "1,2,3\n");
  try {
    trace::read_trace(in, trace::TraceFormat::kCsv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 11"), std::string::npos) << message;
    EXPECT_NE(message.find("3 fields"), std::string::npos) << message;
  }
}

TEST(TraceCodec, CsvOutOfRangeValueNamesField) {
  // hour 99 parses fine but violates the schema's range constraint;
  // row 1 of the log lands on csv line 9 (magic + 5 metadata + header).
  auto log = make_log(2);
  log.records[1].hour = 99;
  std::ostringstream bad;
  trace::write_trace(bad, log, trace::TraceFormat::kCsv);
  std::istringstream in(bad.str());
  try {
    trace::read_trace(in, trace::TraceFormat::kCsv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 9"), std::string::npos) << message;
    EXPECT_NE(message.find("'hour'"), std::string::npos) << message;
    EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  }
}

TEST(TraceCodec, TruncatedBinaryNamesRowAndField) {
  std::ostringstream out;
  trace::write_trace(out, make_log(4), trace::TraceFormat::kBinary);
  const std::string bytes = out.str();
  // Chop mid-way through the last row.
  std::istringstream in(bytes.substr(0, bytes.size() - 11));
  try {
    trace::read_trace(in, trace::TraceFormat::kBinary);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("row 3"), std::string::npos) << message;
    EXPECT_NE(message.find("truncated"), std::string::npos) << message;
    EXPECT_NE(message.find("field '"), std::string::npos) << message;
  }
}

TEST(TraceCodec, BadMagicRejected) {
  std::istringstream csv("#not a trace\n");
  EXPECT_THROW(trace::read_trace(csv, trace::TraceFormat::kCsv),
               std::invalid_argument);
  std::istringstream binary("NOPE....");
  EXPECT_THROW(trace::read_trace(binary, trace::TraceFormat::kBinary),
               std::invalid_argument);
}

TEST(TraceCodec, UnsupportedVersionRejected) {
  std::ostringstream out;
  trace::write_trace(out, make_log(1), trace::TraceFormat::kCsv);
  std::string text = out.str();
  text.replace(text.find("#xpt v1"), 7, "#xpt v9");
  std::istringstream in(text);
  try {
    trace::read_trace(in, trace::TraceFormat::kCsv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("version 9"), std::string::npos)
        << e.what();
  }
}

TEST(TraceSchema, ValidateNamesOffendingField) {
  trace::TraceRecord record = make_record(0, 0, 0);
  EXPECT_TRUE(trace::validate_record(record).empty());
  record.hour = 24;
  EXPECT_EQ(trace::validate_record(record), "hour");
  record = make_record(0, 0, 0);
  record.treated = 2;
  EXPECT_EQ(trace::validate_record(record), "treated");
  record = make_record(0, 0, 0);
  record.device = 9;
  EXPECT_EQ(trace::validate_record(record), "device");
}

// ----------------------------------------------------------------- replay ----

lab::SourceOptions smoke_options() {
  lab::SourceOptions options;
  options.duration_scale = 0.04;
  return options;
}

/// One smoke-scale paired-link world exported through the schema.
trace::TraceLog smoke_world_log() {
  const auto source =
      lab::make_scenario("paired_links/experiment", smoke_options());
  const auto table = source->run(0.95, 5);
  trace::TraceMeta meta;
  meta.source = "paired_links/experiment";
  meta.allocation = 0.95;
  meta.intended_treated_fraction = source->intended_treated_fraction(0.95);
  meta.seed = 5;
  return trace::make_log(table, meta);
}

TEST(TraceReplay, VerbatimReproducesExportedColumns) {
  const auto source =
      lab::make_scenario("paired_links/experiment", smoke_options());
  const auto direct = source->run(0.95, 5);

  // The export is lossless: its records, converted back and tabled by
  // the same builder every record-path backend uses, are the direct
  // columns bit for bit.
  const trace::TraceLog log = trace::make_log(direct, {});
  std::vector<video::SessionRecord> records;
  for (const trace::TraceRecord& row : log.records) {
    records.push_back(trace::to_session_record(row));
  }
  const auto table = core::metric_table(records);

  for (const std::string& metric : direct.metrics) {
    const auto& want = direct.column(metric);
    const auto& got = table.column(metric);
    ASSERT_EQ(want.size(), got.size()) << metric;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].unit, got[i].unit);
      EXPECT_EQ(want[i].treated, got[i].treated);
      EXPECT_EQ(want[i].group, got[i].group);
      EXPECT_EQ(want[i].hour_index, got[i].hour_index);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i].outcome),
                std::bit_cast<std::uint64_t>(got[i].outcome))
          << metric << " row " << i;
    }
  }
}

TEST(TraceReplay, BootstrapIsPureInTheSeed) {
  const trace::TraceSource source(smoke_world_log(), {});
  util::Runner runner(1);
  const auto a = source.run(0.95, 11, runner);
  const auto b = source.run(0.95, 11, runner);
  const auto c = source.run(0.95, 12, runner);
  ASSERT_EQ(a.metrics, b.metrics);
  const auto& col_a = a.column("video bitrate");
  const auto& col_b = b.column("video bitrate");
  const auto& col_c = c.column("video bitrate");
  ASSERT_EQ(col_a.size(), col_b.size());
  for (std::size_t i = 0; i < col_a.size(); ++i) {
    EXPECT_EQ(col_a[i].unit, col_b[i].unit);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(col_a[i].outcome),
              std::bit_cast<std::uint64_t>(col_b[i].outcome));
  }
  bool differs = col_a.size() != col_c.size();
  for (std::size_t i = 0; !differs && i < col_a.size(); ++i) {
    differs = col_a[i].unit != col_c[i].unit;
  }
  EXPECT_TRUE(differs) << "distinct seeds drew identical replicate weeks";
}

TEST(TraceReplay, DurationScaleTruncatesTheHorizon) {
  const auto log = smoke_world_log();
  const trace::TraceSource full(log, {});
  trace::ReplayConfig half;
  half.duration_scale = 0.5;
  const trace::TraceSource truncated(log, half);
  EXPECT_GT(full.replayed_rows(), 0u);
  EXPECT_LT(truncated.replayed_rows(), full.replayed_rows());
  EXPECT_GT(truncated.replayed_rows(), 0u);
}

TEST(TraceReplay, MissingPathThrowsNamingBothKnobs) {
  ::unsetenv("XP_TRACE_FILE");
  try {
    lab::make_scenario("trace/replay");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("trace_path"), std::string::npos) << message;
    EXPECT_NE(message.find("XP_TRACE_FILE"), std::string::npos) << message;
  }
}

// ------------------------------------------------- degenerate recorded logs ----

std::string write_temp_log(const trace::TraceLog& log, const char* name) {
  const std::string path = ::testing::TempDir() + name;
  trace::write_trace_file(path, log);
  return path;
}

lab::ExperimentSpec replay_spec(const std::string& path) {
  lab::ExperimentSpec spec;
  spec.scenario = "trace/replay";
  spec.tuning.trace_path = path;
  spec.replicates = 2;
  spec.seed = 3;
  spec.estimators = {"naive/ab", "paired_link/tte", "guardrail/srm"};
  spec.analysis.bootstrap_replicates = 20;
  return spec;
}

TEST(TraceReplay, EmptyLogIsQuarantinedNotThrown) {
  const auto path = write_temp_log(make_log(0), "trace_empty.xpt");
  const auto report = lab::run_experiment(replay_spec(path));
  const auto manifest = report.manifest();
  EXPECT_EQ(manifest.quality_hold, manifest.cells);
}

TEST(TraceReplay, SingleArmLogYieldsNullRows) {
  trace::TraceLog log = make_log(48);
  for (auto& record : log.records) record.treated = 1;  // no control arm
  const auto path = write_temp_log(log, "trace_single_arm.xpt");
  const auto report = lab::run_experiment(replay_spec(path));
  const auto& naive = report.estimates_for("naive/ab");
  for (const auto* row : naive.metric_rows("video bitrate")) {
    for (const auto& effect : row->replicates) {
      EXPECT_EQ(effect.p_value, 1.0);
      EXPECT_FALSE(effect.significant);
    }
  }
}

TEST(TraceReplay, NanTelemetryRowsDegradeGracefully) {
  trace::TraceLog log = make_log(48);
  for (std::size_t i = 0; i < log.records.size(); i += 4) {
    log.records[i].throughput_bps = kNan;
    log.records[i].min_rtt_s = kNan;
    log.records[i].mean_bitrate_bps = kNan;
  }
  const auto path = write_temp_log(log, "trace_nan.xpt");
  EXPECT_NO_THROW({
    const auto report = lab::run_experiment(replay_spec(path));
    EXPECT_GT(report.manifest().ok, 0u);
  });
}

// ------------------------------------------------------- scenario parity ----

TEST(TraceScenarios, ReplayKeysAreBitIdenticalAcrossThreadCounts) {
  const auto path = write_temp_log(smoke_world_log(), "trace_threads.xpt");
  util::Runner serial(1);
  util::Runner pool(4);
  for (const char* name : {"trace/replay", "trace/self_calibration"}) {
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning = smoke_options();
    spec.tuning.trace_path = path;
    spec.replicates = 2;
    spec.seed = 7;
    spec.estimators = {"paired_link/tte", "guardrail/srm"};
    spec.analysis.bootstrap_replicates = 20;

    const auto report1 = lab::run_experiment(spec, serial);
    const auto reportN = lab::run_experiment(spec, pool);
    for (const char* estimator : {"paired_link/tte", "guardrail/srm"}) {
      const auto& t1 = report1.estimates_for(estimator);
      const auto& tN = reportN.estimates_for(estimator);
      ASSERT_EQ(t1.names, tN.names);
      for (std::size_t r = 0; r < t1.rows.size(); ++r) {
        ASSERT_EQ(t1.rows[r].replicates.size(), tN.rows[r].replicates.size());
        for (std::size_t k = 0; k < t1.rows[r].replicates.size(); ++k) {
          const auto& x = t1.rows[r].replicates[k];
          const auto& y = tN.rows[r].replicates[k];
          EXPECT_EQ(std::bit_cast<std::uint64_t>(x.estimate),
                    std::bit_cast<std::uint64_t>(y.estimate))
              << t1.names[r];
          EXPECT_EQ(std::bit_cast<std::uint64_t>(x.p_value),
                    std::bit_cast<std::uint64_t>(y.p_value))
              << t1.names[r];
        }
      }
    }
  }
}

TEST(TraceScenarios, SelfCalibrationAgreesWithDirectRun) {
  // The acceptance loop: the replayed headline TTE lands inside the
  // direct run's across-week band (widened by its own width — the block
  // bootstrap re-draws the week's hour mix) or overlaps its CI.
  const auto run = [](const char* scenario) {
    lab::ExperimentSpec spec;
    spec.scenario = scenario;
    spec.tuning.duration_scale = 0.2;  // one simulated day per world
    spec.replicates = 3;
    spec.seed = 21;
    spec.estimators = {"paired_link/tte"};
    spec.analysis.bootstrap_replicates = 50;
    return lab::run_experiment(spec);
  };
  const auto direct = run("paired_links/experiment");
  const auto replay = run("trace/self_calibration");

  const auto& direct_row =
      direct.estimates_for("paired_link/tte").row("video bitrate/tte");
  const auto& replay_row =
      replay.estimates_for("paired_link/tte").row("video bitrate/tte");
  ASSERT_TRUE(std::isfinite(replay_row.effect().estimate));

  const auto band = core::relative_spread(direct_row);
  const double slack = band.max - band.min;
  const double headline = replay_row.effect().relative();
  const bool in_band =
      headline >= band.min - slack && headline <= band.max + slack;
  const bool ci_overlap =
      replay_row.effect().relative_ci_low() <=
          direct_row.effect().relative_ci_high() &&
      direct_row.effect().relative_ci_low() <=
          replay_row.effect().relative_ci_high();
  EXPECT_TRUE(in_band || ci_overlap)
      << "replay headline " << headline << " outside direct band ["
      << band.min << ", " << band.max << "] and CI";
}

}  // namespace
}  // namespace xp
