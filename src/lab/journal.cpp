#include "lab/journal.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lab/experiment.h"

namespace xp::lab {

namespace {

constexpr char kMagic[4] = {'X', 'P', 'C', 'J'};
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);
// Frame prefix: payload size + FNV-1a-64 of the payload bytes.
constexpr std::size_t kFrameSize = sizeof(std::uint32_t) + sizeof(std::uint64_t);

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("journal: " + message);
}

// ------------------------------------------------------------- writing ----
// Little-endian, the only byte order we target (same stance as the trace
// binary codec); doubles travel by bit pattern so NaNs round-trip exactly.

template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

void put_string(std::string& out, const std::string& value) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(value.size()));
  out.append(value);
}

// ------------------------------------------------------------- reading ----

/// Bounds-checked cursor over one record's payload; every overrun names
/// the record index and the field being read (the trace codec contract).
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  std::size_t record;

  template <typename T>
  T get(const char* field) {
    if (size - pos < sizeof(T)) {
      fail("record " + std::to_string(record) + ", field '" + field +
           "': payload truncated");
    }
    T value;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string get_string(const char* field) {
    const auto n = get<std::uint32_t>(field);
    if (size - pos < n) {
      fail("record " + std::to_string(record) + ", field '" + field +
           "': string runs past the payload");
    }
    std::string value(data + pos, n);
    pos += n;
    return value;
  }
};

void put_quality(std::string& out, const core::DataQualityReport& q) {
  put<std::uint8_t>(out, q.computed ? 1 : 0);
  put<std::uint64_t>(out, q.rows);
  put<std::uint64_t>(out, q.treated_rows);
  put<std::uint64_t>(out, q.control_rows);
  put<double>(out, q.treated_weight);
  put<double>(out, q.control_weight);
  put<std::uint64_t>(out, q.hours_observed);
  put<std::uint64_t>(out, q.arm_hour_cells);
  put<std::uint64_t>(out, q.non_finite_outcomes);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(q.metrics.size()));
  for (const core::MetricQuality& m : q.metrics) {
    put_string(out, m.metric);
    put<std::uint64_t>(out, m.rows);
    put<std::uint64_t>(out, m.non_finite);
  }
  put<double>(out, q.intended_treated_fraction);
  put<double>(out, q.observed_treated_fraction);
  put<double>(out, q.srm_chi_square);
  put<double>(out, q.srm_p_value);
  put<std::uint8_t>(out, q.srm_flag ? 1 : 0);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(q.issues.size()));
  for (const std::string& issue : q.issues) put_string(out, issue);
}

core::DataQualityReport get_quality(Reader& in) {
  core::DataQualityReport q;
  q.computed = in.get<std::uint8_t>("quality.computed") != 0;
  q.rows = in.get<std::uint64_t>("quality.rows");
  q.treated_rows = in.get<std::uint64_t>("quality.treated_rows");
  q.control_rows = in.get<std::uint64_t>("quality.control_rows");
  q.treated_weight = in.get<double>("quality.treated_weight");
  q.control_weight = in.get<double>("quality.control_weight");
  q.hours_observed = in.get<std::uint64_t>("quality.hours_observed");
  q.arm_hour_cells = in.get<std::uint64_t>("quality.arm_hour_cells");
  q.non_finite_outcomes = in.get<std::uint64_t>("quality.non_finite");
  const auto n_metrics = in.get<std::uint32_t>("quality.metrics");
  q.metrics.reserve(n_metrics);
  for (std::uint32_t m = 0; m < n_metrics; ++m) {
    core::MetricQuality metric;
    metric.metric = in.get_string("quality.metrics.metric");
    metric.rows = in.get<std::uint64_t>("quality.metrics.rows");
    metric.non_finite = in.get<std::uint64_t>("quality.metrics.non_finite");
    q.metrics.push_back(std::move(metric));
  }
  q.intended_treated_fraction = in.get<double>("quality.intended_fraction");
  q.observed_treated_fraction = in.get<double>("quality.observed_fraction");
  q.srm_chi_square = in.get<double>("quality.srm_chi_square");
  q.srm_p_value = in.get<double>("quality.srm_p_value");
  q.srm_flag = in.get<std::uint8_t>("quality.srm_flag") != 0;
  const auto n_issues = in.get<std::uint32_t>("quality.issues");
  q.issues.reserve(n_issues);
  for (std::uint32_t i = 0; i < n_issues; ++i) {
    q.issues.push_back(in.get_string("quality.issues[]"));
  }
  return q;
}

void put_table(std::string& out, const core::ObservationTable& table) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(table.columns.size()));
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    put_string(out, table.metrics[c]);
    const auto& rows = table.columns[c];
    put<std::uint64_t>(out, rows.size());
    for (const core::Observation& obs : rows) {
      put<std::uint64_t>(out, obs.unit);
      put<std::uint64_t>(out, obs.account);
      put<std::uint8_t>(out, obs.treated ? 1 : 0);
      put<double>(out, obs.outcome);
      put<std::uint32_t>(out, obs.hour_of_day);
      put<std::uint64_t>(out, obs.hour_index);
      put<std::uint32_t>(out, obs.day);
      put<std::uint8_t>(out, obs.group);
      put<double>(out, obs.weight);
    }
  }
  put<std::uint32_t>(out,
                     static_cast<std::uint32_t>(table.aggregates.size()));
  for (std::size_t a = 0; a < table.aggregates.size(); ++a) {
    put_string(out, table.aggregate_names[a]);
    put<double>(out, table.aggregates[a]);
  }
  put<std::uint32_t>(out, static_cast<std::uint32_t>(table.series.size()));
  for (std::size_t s = 0; s < table.series.size(); ++s) {
    put_string(out, table.series_names[s]);
    put<std::uint64_t>(out, table.series[s].size());
    for (double v : table.series[s]) put<double>(out, v);
  }
}

core::ObservationTable get_table(Reader& in) {
  core::ObservationTable table;
  const auto n_columns = in.get<std::uint32_t>("table.columns");
  for (std::uint32_t c = 0; c < n_columns; ++c) {
    std::string metric = in.get_string("table.metric");
    const auto n_rows = in.get<std::uint64_t>("table.rows");
    if ((in.size - in.pos) / 50 < n_rows) {  // 50 = on-disk row size
      fail("record " + std::to_string(in.record) + ", field 'table.rows': " +
           std::to_string(n_rows) + " rows do not fit the payload");
    }
    std::vector<core::Observation> rows;
    rows.reserve(n_rows);
    for (std::uint64_t r = 0; r < n_rows; ++r) {
      core::Observation obs;
      obs.unit = in.get<std::uint64_t>("table.row.unit");
      obs.account = in.get<std::uint64_t>("table.row.account");
      obs.treated = in.get<std::uint8_t>("table.row.treated") != 0;
      obs.outcome = in.get<double>("table.row.outcome");
      const auto hour_of_day =
          in.get<std::uint32_t>("table.row.hour_of_day");
      if (hour_of_day > std::numeric_limits<std::uint16_t>::max()) {
        fail("record " + std::to_string(in.record) +
             ", field 'table.row.hour_of_day': " +
             std::to_string(hour_of_day) + " exceeds 65535");
      }
      obs.hour_of_day = static_cast<std::uint16_t>(hour_of_day);
      obs.hour_index = in.get<std::uint64_t>("table.row.hour_index");
      obs.day = in.get<std::uint32_t>("table.row.day");
      obs.group = in.get<std::uint8_t>("table.row.group");
      obs.weight = in.get<double>("table.row.weight");
      rows.push_back(obs);
    }
    table.add_column(std::move(metric), std::move(rows));
  }
  const auto n_aggregates = in.get<std::uint32_t>("table.aggregates");
  for (std::uint32_t a = 0; a < n_aggregates; ++a) {
    std::string name = in.get_string("table.aggregate.name");
    const double value = in.get<double>("table.aggregate.value");
    table.add_aggregate(std::move(name), value);
  }
  const auto n_series = in.get<std::uint32_t>("table.series");
  for (std::uint32_t s = 0; s < n_series; ++s) {
    std::string name = in.get_string("table.series.name");
    const auto n_values = in.get<std::uint64_t>("table.series.len");
    if ((in.size - in.pos) / sizeof(double) < n_values) {
      fail("record " + std::to_string(in.record) +
           ", field 'table.series.len': " + std::to_string(n_values) +
           " values do not fit the payload");
    }
    std::vector<double> values;
    values.reserve(n_values);
    for (std::uint64_t v = 0; v < n_values; ++v) {
      values.push_back(in.get<double>("table.series.value"));
    }
    table.add_series(std::move(name), std::move(values));
  }
  return table;
}

std::string serialize_record(std::uint64_t key,
                             const core::ExperimentCell& cell) {
  std::string payload;
  put<std::uint64_t>(payload, key);
  put<double>(payload, cell.allocation);
  put<std::uint64_t>(payload, cell.replicate);
  put<std::uint64_t>(payload, cell.seed);
  put<std::uint8_t>(payload, static_cast<std::uint8_t>(cell.status.state));
  put<std::uint32_t>(payload, cell.status.attempts);
  put_string(payload, cell.status.error);
  put_quality(payload, cell.quality);
  put_table(payload, cell.table);
  return payload;
}

struct ParsedRecord {
  std::uint64_t key = 0;
  core::ExperimentCell cell;
};

ParsedRecord parse_record(const char* data, std::size_t size,
                          std::size_t record) {
  Reader in{data, size, 0, record};
  ParsedRecord parsed;
  parsed.key = in.get<std::uint64_t>("key");
  parsed.cell.allocation = in.get<double>("allocation");
  parsed.cell.replicate =
      static_cast<std::size_t>(in.get<std::uint64_t>("replicate"));
  parsed.cell.seed = in.get<std::uint64_t>("seed");
  parsed.cell.status.state =
      static_cast<core::CellState>(in.get<std::uint8_t>("state"));
  parsed.cell.status.attempts = in.get<std::uint32_t>("attempts");
  parsed.cell.status.error = in.get_string("error");
  parsed.cell.quality = get_quality(in);
  parsed.cell.table = get_table(in);
  if (in.pos != in.size) {
    fail("record " + std::to_string(record) + ": " +
         std::to_string(in.size - in.pos) +
         " trailing byte(s) after the last field");
  }
  return parsed;
}

// -------------------------------------------------------- fingerprints ----

/// Order-sensitive field hash: every field is framed exactly like the
/// on-disk strings, so "ab"+"c" and "a"+"bc" hash differently.
struct Fingerprint {
  std::string bytes;

  template <typename T>
  void add(T value) {
    put<T>(bytes, value);
  }
  void add_string(const std::string& value) { put_string(bytes, value); }
  std::uint64_t hash() const noexcept {
    return fnv1a64(bytes.data(), bytes.size());
  }
};

}  // namespace

std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t hash) noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string journal_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "cells.xpj").string();
}

std::uint64_t journal_fingerprint(const ExperimentSpec& spec) {
  Fingerprint fp;
  fp.add<std::uint32_t>(kJournalVersion);
  fp.add_string(spec.scenario);
  // Tuning: everything that changes what a source computes.
  fp.add<double>(spec.tuning.duration_scale);
  fp.add_string(spec.tuning.trace_path);
  fp.add<std::uint64_t>(spec.tuning.budget.max_work_units);
  // Quality gate: its thresholds decide kOk vs kQualityHold.
  fp.add<double>(spec.quality.srm_p_threshold);
  fp.add<std::uint64_t>(spec.quality.min_rows);
  // Failure policy: retry count changes the seed a flaky cell lands on.
  fp.add<std::uint8_t>(static_cast<std::uint8_t>(spec.on_failure.mode));
  fp.add<std::uint32_t>(spec.on_failure.max_attempts);
  return fp.hash();
}

std::uint64_t journal_cell_key(std::uint64_t fingerprint, double allocation,
                               std::uint64_t seed) noexcept {
  char bytes[sizeof(fingerprint) + sizeof(allocation) + sizeof(seed)];
  std::memcpy(bytes, &fingerprint, sizeof(fingerprint));
  std::memcpy(bytes + sizeof(fingerprint), &allocation, sizeof(allocation));
  std::memcpy(bytes + sizeof(fingerprint) + sizeof(allocation), &seed,
              sizeof(seed));
  return fnv1a64(bytes, sizeof(bytes));
}

// ---------------------------------------------------------- CellJournal ----

struct CellJournal::Impl {
  std::string path;
  std::unordered_map<std::uint64_t, core::ExperimentCell> cells;
  std::size_t records = 0;
  std::uint64_t truncated = 0;
  std::mutex append_mu;
  std::ofstream out;
};

CellJournal::CellJournal(std::string path) : impl_(new Impl) {
  impl_->path = std::move(path);
  namespace fs = std::filesystem;
  const fs::path file(impl_->path);
  if (file.has_parent_path()) fs::create_directories(file.parent_path());

  // Replay: slurp the file and walk the frames. The whole journal is
  // loaded anyway (every record may be needed), so read-at-once is both
  // the simple and the fast path.
  std::string data;
  if (fs::exists(file)) {
    std::ifstream in(impl_->path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("journal: cannot open " + impl_->path);
    }
    data.resize(static_cast<std::size_t>(fs::file_size(file)));
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    data.resize(static_cast<std::size_t>(in.gcount()));
  }

  std::size_t valid_end = 0;
  if (!data.empty()) {
    if (data.size() >= sizeof(kMagic) &&
        std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
      fail(impl_->path + ": not a cell journal (bad magic)");
    }
    if (data.size() < kHeaderSize) {
      // A kill mid-header-write: nothing could have been journaled yet,
      // so recover by rewriting the file from scratch.
      data.clear();
    } else {
      std::uint32_t version = 0;
      std::memcpy(&version, data.data() + sizeof(kMagic), sizeof(version));
      if (version != kJournalVersion) {
        fail(impl_->path + ": journal version " + std::to_string(version) +
             " (this build reads v" + std::to_string(kJournalVersion) + ")");
      }
      valid_end = kHeaderSize;
      std::size_t pos = kHeaderSize;
      while (pos < data.size()) {
        // Frame prefix or payload running past end-of-file is a torn
        // tail — the crash artifact this journal exists to survive.
        // Drop it and resume from the last complete record.
        if (data.size() - pos < kFrameSize) break;
        std::uint32_t payload_size = 0;
        std::uint64_t checksum = 0;
        std::memcpy(&payload_size, data.data() + pos, sizeof(payload_size));
        std::memcpy(&checksum, data.data() + pos + sizeof(payload_size),
                    sizeof(checksum));
        if (data.size() - pos - kFrameSize < payload_size) break;
        const char* payload = data.data() + pos + kFrameSize;
        // A *complete* frame with a wrong checksum is not a torn tail,
        // it is corruption — refuse the journal, naming the record.
        if (fnv1a64(payload, payload_size) != checksum) {
          fail(impl_->path + ": record " + std::to_string(impl_->records) +
               ": checksum mismatch (corrupt journal; delete it to "
               "recompute from scratch)");
        }
        ParsedRecord parsed =
            parse_record(payload, payload_size, impl_->records);
        // Later records win: a recomputed cell supersedes an older copy.
        impl_->cells[parsed.key] = std::move(parsed.cell);
        ++impl_->records;
        pos += kFrameSize + payload_size;
        valid_end = pos;
      }
      impl_->truncated = data.size() - valid_end;
    }
  }

  if (valid_end == 0) {
    // New (or unrecoverably short) file: write a fresh header.
    std::ofstream header(impl_->path,
                         std::ios::binary | std::ios::trunc);
    header.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kJournalVersion;
    header.write(reinterpret_cast<const char*>(&version), sizeof(version));
    header.flush();
    if (!header) {
      throw std::runtime_error("journal: cannot create " + impl_->path);
    }
  } else if (valid_end < data.size()) {
    // Torn tail: cut the file back to the last complete record so the
    // next append starts on a clean frame boundary.
    std::filesystem::resize_file(file, valid_end);
  }

  impl_->out.open(impl_->path, std::ios::binary | std::ios::app);
  if (!impl_->out) {
    throw std::runtime_error("journal: cannot append to " + impl_->path);
  }
}

CellJournal::~CellJournal() = default;

const core::ExperimentCell* CellJournal::find(
    std::uint64_t key, double allocation,
    std::uint64_t seed) const noexcept {
  const auto it = impl_->cells.find(key);
  if (it == impl_->cells.end()) return nullptr;
  const core::ExperimentCell& cell = it->second;
  // Key collisions are astronomically unlikely but free to rule out: the
  // record carries its coordinates, so verify them.
  if (cell.seed != seed ||
      std::memcmp(&cell.allocation, &allocation, sizeof(double)) != 0) {
    return nullptr;
  }
  return &cell;
}

void CellJournal::append(std::uint64_t key,
                         const core::ExperimentCell& cell) {
  const std::string payload = serialize_record(key, cell);
  std::string frame;
  frame.reserve(kFrameSize + payload.size());
  put<std::uint32_t>(frame, static_cast<std::uint32_t>(payload.size()));
  put<std::uint64_t>(frame, fnv1a64(payload.data(), payload.size()));
  frame.append(payload);

  // One locked write+flush per cell: records from concurrent cells never
  // interleave, and a crash after append() can only tear the *last*
  // frame — exactly what replay recovers from.
  std::lock_guard<std::mutex> lock(impl_->append_mu);
  impl_->out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  impl_->out.flush();
  if (!impl_->out) {
    throw std::runtime_error("journal: write failed on " + impl_->path);
  }
}

std::size_t CellJournal::records() const noexcept { return impl_->records; }

std::uint64_t CellJournal::truncated_bytes() const noexcept {
  return impl_->truncated;
}

}  // namespace xp::lab
