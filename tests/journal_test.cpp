// Crash-safe cell journal (lab/journal.h): resumed runs are bit-identical
// to uninterrupted ones at any thread count, torn tails are recovered,
// checksum corruption is refused naming the record, and stale content
// keys recompute instead of replaying.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lab/experiment.h"
#include "lab/journal.h"
#include "lab/registry.h"
#include "stats/rng.h"
#include "util/runner.h"

namespace xp {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------- test scenario ----

/// Seeds the journal-test source dies on — the deterministic stand-in for
/// an OOM-kill / preemption mid-sweep.
std::set<std::uint64_t>& poisoned_seeds() {
  static std::set<std::uint64_t> seeds;
  return seeds;
}

/// Simulations actually performed (what the journal is supposed to save).
std::atomic<std::uint64_t>& source_runs() {
  static std::atomic<std::uint64_t> runs{0};
  return runs;
}

/// A small deterministic world exercising every serialized surface:
/// unit rows (with one NaN outcome — the bit-exactness seam), scalar
/// aggregates, and a time series.
class JournalWorld final : public lab::DataSource {
 public:
  double default_allocation() const noexcept override { return 0.5; }

  lab::ObservationTable run(double allocation, std::uint64_t seed,
                            util::Runner&) const override {
    ++source_runs();
    if (poisoned_seeds().count(seed) > 0) {
      throw std::runtime_error("injected crash (seed " +
                               std::to_string(seed) + ")");
    }
    stats::Rng rng(seed);
    lab::ObservationTable table;
    std::vector<core::Observation> rows;
    const std::size_t n = 60;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      core::Observation obs;
      obs.unit = i;
      obs.account = i / 2;
      obs.treated = rng.bernoulli(allocation);
      obs.hour_of_day = static_cast<std::uint16_t>(i % 24);
      obs.hour_index = i % 48;
      obs.day = static_cast<std::uint32_t>(i / 24);
      obs.group = static_cast<std::uint8_t>(i % 2);
      obs.outcome = i == 7 ? std::numeric_limits<double>::quiet_NaN()
                           : 5.0 + (obs.treated ? 0.5 : 0.0) +
                                 rng.normal(0.0, 1.0);
      rows.push_back(obs);
    }
    table.add_column("journal metric", std::move(rows));
    table.add_aggregate("world_seed_echo", static_cast<double>(seed) * 0.5);
    table.add_series("hourly_series",
                     {1.0, rng.normal(0.0, 1.0), 3.5, rng.uniform()});
    return table;
  }
};

void ensure_scenario() {
  static const bool registered = [] {
    lab::register_scenario("journal_test/world", [](const lab::SourceOptions&) {
      return std::make_unique<JournalWorld>();
    });
    return true;
  }();
  (void)registered;
}

lab::ExperimentSpec journal_spec() {
  ensure_scenario();
  lab::ExperimentSpec spec;
  spec.scenario = "journal_test/world";
  spec.allocations = {0.25, 0.75};
  spec.replicates = 3;  // 6 cells
  spec.estimators = {"naive/ab"};
  spec.seed = 77;
  spec.analysis.bootstrap_replicates = 30;
  return spec;
}

/// A fresh journal directory per test case (tests may run in any order).
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("xp_journal_test_") + tag)) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  lab::JournalOptions options() const { return {path.string()}; }
  std::string file() const { return lab::journal_path(path.string()); }
};

// Bitwise equality of everything a report carries. EXPECT_EQ on doubles
// would pass -0.0 vs 0.0 and fail NaN vs NaN; the journal's contract is
// the bit pattern.
void expect_bit_equal(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_reports_identical(const core::ExperimentReport& a,
                              const core::ExperimentReport& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const core::ExperimentCell& x = a.cells[i];
    const core::ExperimentCell& y = b.cells[i];
    expect_bit_equal(x.allocation, y.allocation, "allocation");
    EXPECT_EQ(x.replicate, y.replicate);
    EXPECT_EQ(x.seed, y.seed);
    EXPECT_EQ(x.status.state, y.status.state);
    EXPECT_EQ(x.status.attempts, y.status.attempts);
    EXPECT_EQ(x.status.error, y.status.error);
    EXPECT_EQ(x.quality.computed, y.quality.computed);
    EXPECT_EQ(x.quality.rows, y.quality.rows);
    EXPECT_EQ(x.quality.non_finite_outcomes, y.quality.non_finite_outcomes);
    expect_bit_equal(x.quality.srm_p_value, y.quality.srm_p_value,
                     "srm_p_value");
    EXPECT_EQ(x.quality.issues, y.quality.issues);
    ASSERT_EQ(x.table.metrics, y.table.metrics);
    ASSERT_EQ(x.table.columns.size(), y.table.columns.size());
    for (std::size_t c = 0; c < x.table.columns.size(); ++c) {
      ASSERT_EQ(x.table.columns[c].size(), y.table.columns[c].size());
      for (std::size_t r = 0; r < x.table.columns[c].size(); ++r) {
        const core::Observation& p = x.table.columns[c][r];
        const core::Observation& q = y.table.columns[c][r];
        EXPECT_EQ(p.unit, q.unit);
        EXPECT_EQ(p.account, q.account);
        EXPECT_EQ(p.treated, q.treated);
        expect_bit_equal(p.outcome, q.outcome, "outcome");
        EXPECT_EQ(p.hour_of_day, q.hour_of_day);
        EXPECT_EQ(p.hour_index, q.hour_index);
        EXPECT_EQ(p.day, q.day);
        EXPECT_EQ(p.group, q.group);
        expect_bit_equal(p.weight, q.weight, "weight");
      }
    }
    ASSERT_EQ(x.table.aggregate_names, y.table.aggregate_names);
    ASSERT_EQ(x.table.aggregates.size(), y.table.aggregates.size());
    for (std::size_t v = 0; v < x.table.aggregates.size(); ++v) {
      expect_bit_equal(x.table.aggregates[v], y.table.aggregates[v],
                       "aggregate");
    }
    ASSERT_EQ(x.table.series_names, y.table.series_names);
    ASSERT_EQ(x.table.series.size(), y.table.series.size());
    for (std::size_t s = 0; s < x.table.series.size(); ++s) {
      ASSERT_EQ(x.table.series[s].size(), y.table.series[s].size());
      for (std::size_t v = 0; v < x.table.series[s].size(); ++v) {
        expect_bit_equal(x.table.series[s][v], y.table.series[s][v],
                         "series value");
      }
    }
  }
  // The acceptance surface: the EstimateTable, byte for byte.
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t e = 0; e < a.estimates.size(); ++e) {
    SCOPED_TRACE("estimator " + a.estimates[e].estimator);
    EXPECT_EQ(a.estimates[e].estimator, b.estimates[e].estimator);
    ASSERT_EQ(a.estimates[e].names, b.estimates[e].names);
    ASSERT_EQ(a.estimates[e].rows.size(), b.estimates[e].rows.size());
    for (std::size_t r = 0; r < a.estimates[e].rows.size(); ++r) {
      const core::EstimateRow& x = a.estimates[e].rows[r];
      const core::EstimateRow& y = b.estimates[e].rows[r];
      ASSERT_EQ(x.replicates.size(), y.replicates.size());
      for (std::size_t k = 0; k < x.replicates.size(); ++k) {
        expect_bit_equal(x.replicates[k].estimate, y.replicates[k].estimate,
                         "estimate");
        expect_bit_equal(x.replicates[k].std_error, y.replicates[k].std_error,
                         "std_error");
        expect_bit_equal(x.replicates[k].ci_low, y.replicates[k].ci_low,
                         "ci_low");
        expect_bit_equal(x.replicates[k].ci_high, y.replicates[k].ci_high,
                         "ci_high");
        expect_bit_equal(x.replicates[k].p_value, y.replicates[k].p_value,
                         "p_value");
      }
    }
  }
}

/// Flip one byte of the journal file at `offset`.
void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

// ------------------------------------------------------------ the tests ----

TEST(Journal, JournaledRunIsBitIdenticalToPlainRunAndNeverResimulates) {
  const lab::ExperimentSpec spec = journal_spec();
  const auto plain = lab::run_experiment(spec);

  TempDir dir("fresh");
  const auto first = lab::run_experiment(spec, dir.options());
  expect_reports_identical(plain, first);

  // Second run: every cell replays from disk — zero simulations — and
  // the report (cells AND estimates) is still bit-identical, at 1 and 4
  // threads.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::Runner runner(threads);
    const std::uint64_t before = source_runs().load();
    const auto resumed = lab::run_experiment(spec, dir.options(), runner);
    EXPECT_EQ(source_runs().load(), before) << "journaled cells re-simulated";
    expect_reports_identical(plain, resumed);
  }
}

TEST(Journal, KillMidRunThenResumeIsBitIdenticalAt1And4Threads) {
  const lab::ExperimentSpec spec = journal_spec();
  const auto uninterrupted = lab::run_experiment(spec);
  const std::size_t cells =
      spec.allocations.size() * spec.replicates;  // 6

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TempDir dir(threads == 1 ? "kill1" : "kill4");
    util::Runner runner(threads);

    // "Kill" the run after >= 1 cell completes: poison a late cell under
    // fail_fast, so earlier cells finish (and are journaled) before the
    // sweep dies. The stop token also cancels not-yet-started cells —
    // exactly the partial-progress shape a real kill leaves behind.
    poisoned_seeds() = {lab::cell_seed(spec.seed, cells - 1)};
    EXPECT_THROW(lab::run_experiment(spec, dir.options(), runner),
                 std::runtime_error);
    poisoned_seeds().clear();

    {
      // The journal holds the completed prefix — at least one cell, never
      // the poisoned one.
      lab::CellJournal peek(dir.file());
      EXPECT_GE(peek.records(), 1u);
      EXPECT_LT(peek.records(), cells);
      EXPECT_EQ(peek.truncated_bytes(), 0u);
    }

    const std::uint64_t before = source_runs().load();
    const auto resumed = lab::run_experiment(spec, dir.options(), runner);
    const std::uint64_t recomputed = source_runs().load() - before;
    EXPECT_GE(recomputed, 1u);  // the poisoned cell was never journaled
    EXPECT_LT(recomputed, cells);  // and the journaled prefix replayed
    expect_reports_identical(uninterrupted, resumed);
  }
}

TEST(Journal, TornFinalRecordIsTruncatedAndRecomputed) {
  const lab::ExperimentSpec spec = journal_spec();
  const auto uninterrupted = lab::run_experiment(spec);
  TempDir dir("torn");
  lab::run_experiment(spec, dir.options());

  // Tear the tail mid-frame — a crash during the final append.
  const std::uint64_t full_size = fs::file_size(dir.file());
  fs::resize_file(dir.file(), full_size - 11);

  std::size_t complete_records = 0;
  {
    lab::CellJournal journal(dir.file());
    complete_records = journal.records();
    EXPECT_EQ(complete_records, 5u);  // 6 written, the torn one dropped
    EXPECT_GT(journal.truncated_bytes(), 0u);
  }

  // Resume: exactly the torn cell is recomputed, the report is whole and
  // bit-identical, and the repaired journal is complete again.
  const std::uint64_t before = source_runs().load();
  const auto resumed = lab::run_experiment(spec, dir.options());
  EXPECT_EQ(source_runs().load() - before, 1u);
  expect_reports_identical(uninterrupted, resumed);
  lab::CellJournal repaired(dir.file());
  EXPECT_EQ(repaired.records(), 6u);
  EXPECT_EQ(repaired.truncated_bytes(), 0u);
}

TEST(Journal, ChecksumMismatchIsRefusedNamingTheRecord) {
  const lab::ExperimentSpec spec = journal_spec();
  TempDir dir("corrupt");
  lab::run_experiment(spec, dir.options());

  // Flip a payload byte of record 0 (offset: 8-byte header + 12-byte
  // frame prefix + a few bytes in). The frame is complete, so this is
  // corruption, not a torn tail — the journal must refuse, naming the
  // record, instead of replaying a lie.
  corrupt_byte(dir.file(), 8 + 12 + 3);
  try {
    lab::CellJournal journal(dir.file());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 0"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  }
  // And run_experiment refuses the same way rather than recomputing over
  // a corrupt journal.
  EXPECT_THROW(lab::run_experiment(spec, dir.options()),
               std::invalid_argument);
}

/// One OK cell whose table is the given rows, as the pipeline would
/// append it.
core::ExperimentCell cell_of(std::vector<core::Observation> rows) {
  core::ExperimentCell cell;
  cell.allocation = 0.5;
  cell.seed = 99;
  cell.table.add_column("rows", std::move(rows));
  return cell;
}

// The in-memory row packs hour_of_day into 16 bits; the on-disk row keeps
// its 32-bit field. Every field must come back bit for bit, including
// hours past the day, a fractional weight, NaN and -0.0.
TEST(Journal, RowsRoundTripBitForBit) {
  std::vector<core::Observation> rows;
  const double outcomes[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                             1.25, -3.5e300};
  const std::uint16_t hours[] = {0, 23, 24, 65535};
  for (std::size_t i = 0; i < 4; ++i) {
    core::Observation obs;
    obs.unit = std::numeric_limits<std::uint64_t>::max() - i;
    obs.account = 0x0123456789abcdefULL + i;
    obs.outcome = outcomes[i];
    obs.hour_index = (std::uint64_t{1} << 40) + i;
    obs.weight = i == 2 ? 0.375 : 1.0 + static_cast<double>(i);
    obs.day = std::numeric_limits<std::uint32_t>::max() - 1 -
              static_cast<std::uint32_t>(i);
    obs.hour_of_day = hours[i];
    obs.treated = i % 2 == 1;
    obs.group = static_cast<std::uint8_t>(250 + i);
    rows.push_back(obs);
  }
  TempDir dir("roundtrip");
  const core::ExperimentCell written = cell_of(rows);
  { lab::CellJournal(dir.file()).append(5, written); }

  lab::CellJournal journal(dir.file());
  const core::ExperimentCell* read = journal.find(5, 0.5, 99);
  ASSERT_NE(read, nullptr);
  ASSERT_EQ(read->table.metrics, written.table.metrics);
  const std::vector<core::Observation>& back = read->table.columns.at(0);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(back[i].unit, rows[i].unit);
    EXPECT_EQ(back[i].account, rows[i].account);
    expect_bit_equal(back[i].outcome, rows[i].outcome, "outcome");
    EXPECT_EQ(back[i].hour_index, rows[i].hour_index);
    expect_bit_equal(back[i].weight, rows[i].weight, "weight");
    EXPECT_EQ(back[i].day, rows[i].day);
    EXPECT_EQ(back[i].hour_of_day, rows[i].hour_of_day);
    EXPECT_EQ(back[i].treated, rows[i].treated);
    EXPECT_EQ(back[i].group, rows[i].group);
  }
}

// A well-framed record whose 32-bit on-disk hour_of_day does not fit the
// 16-bit row is refused naming the record and the field, never wrapped.
TEST(Journal, HourOfDayPast16BitsIsRefusedNamingTheField) {
  core::Observation obs;
  obs.unit = 1;
  obs.account = 2;
  obs.outcome = 2.5;
  obs.hour_index = 3;
  obs.hour_of_day = 0xBEEF;  // a marker to find on disk
  TempDir dir("widehour");
  { lab::CellJournal(dir.file()).append(5, cell_of({obs})); }

  // Rewrite the marker as 70000 and re-checksum the frame, so only the
  // field's value is wrong. Layout: 8-byte header, then u32 payload size
  // and u64 checksum, then the payload.
  std::string bytes;
  {
    std::ifstream in(dir.file(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t payload_at = 8 + 12;
  ASSERT_GT(bytes.size(), payload_at);
  const std::string marker("\xEF\xBE\x00\x00", 4);
  const std::size_t at = bytes.find(marker, payload_at);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(marker, at + 1), std::string::npos);
  const std::uint32_t wide = 70000;
  std::memcpy(bytes.data() + at, &wide, sizeof(wide));
  const std::uint64_t checksum = lab::fnv1a64(
      bytes.data() + payload_at, bytes.size() - payload_at);
  std::memcpy(bytes.data() + 8 + 4, &checksum, sizeof(checksum));
  {
    std::ofstream out(dir.file(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  try {
    lab::CellJournal journal(dir.file());
    FAIL() << "hour_of_day 70000 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("record 0"), std::string::npos) << what;
    EXPECT_NE(what.find("table.row.hour_of_day"), std::string::npos) << what;
    EXPECT_NE(what.find("70000"), std::string::npos) << what;
  }
}

TEST(Journal, ForeignOrWrongVersionFilesAreRefused) {
  TempDir dir("foreign");
  fs::create_directories(dir.path);
  {
    std::ofstream out(dir.file(), std::ios::binary);
    out << "this is not a journal";
  }
  EXPECT_THROW(lab::CellJournal{dir.file()}, std::invalid_argument);

  {
    std::ofstream out(dir.file(), std::ios::binary | std::ios::trunc);
    out.write("XPCJ", 4);
    const std::uint32_t version = 999;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  try {
    lab::CellJournal journal(dir.file());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(Journal, StaleContentKeyRecomputesInsteadOfReplaying) {
  const lab::ExperimentSpec spec = journal_spec();
  TempDir dir("stale");
  lab::run_experiment(spec, dir.options());
  const std::size_t cells = spec.allocations.size() * spec.replicates;

  // Any spec change that alters what a cell computes must miss the
  // journal: tuning (duration_scale, budget), quality gate, policy, and
  // the spec seed (which re-derives every cell seed).
  lab::ExperimentSpec changed_tuning = spec;
  changed_tuning.tuning.duration_scale = 0.5;
  lab::ExperimentSpec changed_quality = spec;
  changed_quality.quality.min_rows = 2;
  // Note the journal is content-addressed by the *derived* per-cell seed,
  // not the spec seed: two spec seeds whose substreams coincide at the
  // same allocation legitimately share cells (e.g. 77 and 78 overlap in 4
  // of 6 substreams). 1234's substreams share none of 77's.
  lab::ExperimentSpec changed_seed = spec;
  changed_seed.seed = 1234;
  for (const lab::ExperimentSpec& stale :
       {changed_tuning, changed_quality, changed_seed}) {
    const std::uint64_t before = source_runs().load();
    lab::run_experiment(stale, dir.options());
    EXPECT_EQ(source_runs().load() - before, cells)
        << "a stale journal record satisfied a changed spec";
  }

  // The journal now also carries the changed specs' cells (keys are
  // spec-scoped): the original spec still replays with zero simulations.
  const std::uint64_t before = source_runs().load();
  const auto resumed = lab::run_experiment(spec, dir.options());
  EXPECT_EQ(source_runs().load(), before);
  expect_reports_identical(lab::run_experiment(spec), resumed);

  // The fingerprint itself distinguishes every knob the key hashes.
  const std::uint64_t base = lab::journal_fingerprint(spec);
  EXPECT_NE(base, lab::journal_fingerprint(changed_tuning));
  EXPECT_NE(base, lab::journal_fingerprint(changed_quality));
  lab::ExperimentSpec budgeted = spec;
  budgeted.tuning.budget.max_work_units = 10;
  EXPECT_NE(base, lab::journal_fingerprint(budgeted));
  lab::ExperimentSpec skip = spec;
  skip.on_failure = lab::FailurePolicy::skip();
  EXPECT_NE(base, lab::journal_fingerprint(skip));
  // Estimators are deliberately NOT keyed: adding one re-analyzes the
  // journaled worlds without re-simulating them.
  lab::ExperimentSpec more_estimators = spec;
  more_estimators.estimators.push_back("guardrail/srm");
  EXPECT_EQ(base, lab::journal_fingerprint(more_estimators));
  const std::uint64_t before2 = source_runs().load();
  const auto re_analyzed = lab::run_experiment(more_estimators, dir.options());
  EXPECT_EQ(source_runs().load(), before2);
  EXPECT_EQ(re_analyzed.estimates.size(), 2u);
}

TEST(Journal, NonOkCellsAreJournaledAndReplayed) {
  // Terminal non-OK states (skipped here) journal like OK cells: a
  // resume does not re-run a cell the policy already disposed of.
  lab::ExperimentSpec spec = journal_spec();
  spec.on_failure = lab::FailurePolicy::skip();
  TempDir dir("nonok");
  poisoned_seeds() = {lab::cell_seed(spec.seed, 2)};
  const auto first = lab::run_experiment(spec, dir.options());
  EXPECT_EQ(first.manifest().skipped, 1u);

  const std::uint64_t before = source_runs().load();
  const auto resumed = lab::run_experiment(spec, dir.options());
  poisoned_seeds().clear();
  EXPECT_EQ(source_runs().load(), before);
  EXPECT_EQ(resumed.cells[2].status.state, core::CellState::kSkipped);
  expect_reports_identical(first, resumed);
}

}  // namespace
}  // namespace xp
