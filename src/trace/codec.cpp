#include "trace/codec.h"

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

namespace xp::trace {

namespace {

// ------------------------------------------------------- field metadata ----

// One descriptor per schema column, in kFieldNames order. TraceRecord is
// standard-layout, so offsetof gives both codecs a single table to walk
// instead of 24 hand-written accessors that could drift from the schema.
enum class FieldType : std::uint8_t { kU64, kU32, kU8, kF64 };

struct FieldDesc {
  FieldType type;
  std::size_t offset;
};

constexpr FieldDesc kFields[kFieldCount] = {
    {FieldType::kU64, offsetof(TraceRecord, session_id)},
    {FieldType::kU64, offsetof(TraceRecord, account_id)},
    {FieldType::kU8, offsetof(TraceRecord, link)},
    {FieldType::kU8, offsetof(TraceRecord, treated)},
    {FieldType::kU32, offsetof(TraceRecord, day)},
    {FieldType::kU32, offsetof(TraceRecord, hour)},
    {FieldType::kF64, offsetof(TraceRecord, arrival_s)},
    {FieldType::kF64, offsetof(TraceRecord, duration_s)},
    {FieldType::kU8, offsetof(TraceRecord, device)},
    {FieldType::kF64, offsetof(TraceRecord, startup_delay_s)},
    {FieldType::kU8, offsetof(TraceRecord, cancelled_start)},
    {FieldType::kU32, offsetof(TraceRecord, rebuffer_count)},
    {FieldType::kF64, offsetof(TraceRecord, rebuffer_s)},
    {FieldType::kU8, offsetof(TraceRecord, had_rebuffer)},
    {FieldType::kF64, offsetof(TraceRecord, mean_bitrate_bps)},
    {FieldType::kF64, offsetof(TraceRecord, perceptual_quality)},
    {FieldType::kF64, offsetof(TraceRecord, quality_integral)},
    {FieldType::kF64, offsetof(TraceRecord, throughput_bps)},
    {FieldType::kF64, offsetof(TraceRecord, min_rtt_s)},
    {FieldType::kF64, offsetof(TraceRecord, mean_rtt_s)},
    {FieldType::kF64, offsetof(TraceRecord, retransmit_fraction)},
    {FieldType::kF64, offsetof(TraceRecord, bytes_sent)},
    {FieldType::kU32, offsetof(TraceRecord, bitrate_switches)},
    {FieldType::kF64, offsetof(TraceRecord, stability)},
};

std::size_t field_size(FieldType type) noexcept {
  switch (type) {
    case FieldType::kU64:
      return 8;
    case FieldType::kU32:
      return 4;
    case FieldType::kU8:
      return 1;
    case FieldType::kF64:
      return 8;
  }
  return 0;
}

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("trace: " + message);
}

// ------------------------------------------------------- meta key/values ----

std::string format_f64(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::vector<std::pair<std::string, std::string>> meta_to_kv(
    const TraceMeta& meta) {
  return {{"source", meta.source},
          {"allocation", format_f64(meta.allocation)},
          {"intended_treated_fraction",
           format_f64(meta.intended_treated_fraction)},
          {"seed", std::to_string(meta.seed)},
          {"horizon_s", format_f64(meta.horizon_s)}};
}

bool parse_f64_token(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// The whole token must be decimal digits naming a value that fits in 64
/// bits: no sign, no surrounding whitespace, no saturation on overflow.
bool parse_u64_token(const std::string& token, std::uint64_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, error] = std::from_chars(token.data(), end, out);
  return error == std::errc{} && ptr == end;
}

/// Apply one metadata key=value pair; `where` names the location for
/// error messages ("line 3" / "binary header entry 2").
void apply_meta_kv(TraceMeta& meta, const std::string& key,
                   const std::string& value, const std::string& where) {
  const auto bad_value = [&] {
    fail(where + ", metadata key '" + key + "': cannot parse value '" +
         value + "'");
  };
  if (key == "source") {
    meta.source = value;
  } else if (key == "allocation") {
    if (!parse_f64_token(value, meta.allocation)) bad_value();
  } else if (key == "intended_treated_fraction") {
    if (!parse_f64_token(value, meta.intended_treated_fraction)) bad_value();
  } else if (key == "seed") {
    if (!parse_u64_token(value, meta.seed)) bad_value();
  } else if (key == "horizon_s") {
    if (!parse_f64_token(value, meta.horizon_s)) bad_value();
  } else {
    fail(where + ": unknown metadata key '" + key + "'");
  }
}

// ------------------------------------------------------------------ CSV ----

constexpr std::string_view kCsvMagicPrefix = "#xpt v";

void write_csv(std::ostream& out, const TraceLog& log) {
  out << "#xpt v" << log.meta.schema << " csv\n";
  for (const auto& [key, value] : meta_to_kv(log.meta)) {
    out << '#' << key << '=' << value << '\n';
  }
  for (std::size_t f = 0; f < kFieldCount; ++f) {
    out << (f ? "," : "") << kFieldNames[f];
  }
  out << '\n';
  for (const TraceRecord& record : log.records) {
    const char* base = reinterpret_cast<const char*>(&record);
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      if (f) out << ',';
      switch (kFields[f].type) {
        case FieldType::kU64: {
          std::uint64_t v;
          std::memcpy(&v, base + kFields[f].offset, sizeof v);
          out << v;
          break;
        }
        case FieldType::kU32: {
          std::uint32_t v;
          std::memcpy(&v, base + kFields[f].offset, sizeof v);
          out << v;
          break;
        }
        case FieldType::kU8: {
          std::uint8_t v;
          std::memcpy(&v, base + kFields[f].offset, sizeof v);
          out << static_cast<unsigned>(v);
          break;
        }
        case FieldType::kF64: {
          double v;
          std::memcpy(&v, base + kFields[f].offset, sizeof v);
          out << format_f64(v);
          break;
        }
      }
    }
    out << '\n';
  }
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

void parse_csv_field(const std::string& token, std::size_t field,
                     std::size_t line_number, TraceRecord& record) {
  const auto bad = [&] {
    fail("csv: line " + std::to_string(line_number) + ", field '" +
         std::string(kFieldNames[field]) + "': cannot parse '" + token +
         "' as a " +
         (kFields[field].type == FieldType::kF64 ? "number"
                                                 : "non-negative integer"));
  };
  char* base = reinterpret_cast<char*>(&record);
  switch (kFields[field].type) {
    case FieldType::kU64: {
      std::uint64_t v;
      if (!parse_u64_token(token, v)) bad();
      std::memcpy(base + kFields[field].offset, &v, sizeof v);
      break;
    }
    case FieldType::kU32: {
      std::uint64_t v;
      if (!parse_u64_token(token, v) || v > 0xffffffffULL) bad();
      const auto narrow = static_cast<std::uint32_t>(v);
      std::memcpy(base + kFields[field].offset, &narrow, sizeof narrow);
      break;
    }
    case FieldType::kU8: {
      std::uint64_t v;
      if (!parse_u64_token(token, v) || v > 0xffULL) bad();
      const auto narrow = static_cast<std::uint8_t>(v);
      std::memcpy(base + kFields[field].offset, &narrow, sizeof narrow);
      break;
    }
    case FieldType::kF64: {
      double v;
      if (!parse_f64_token(token, v)) bad();
      std::memcpy(base + kFields[field].offset, &v, sizeof v);
      break;
    }
  }
}

TraceLog read_csv(std::istream& in) {
  TraceLog log;
  std::string line;
  std::size_t line_number = 0;

  // Magic + version.
  if (!std::getline(in, line)) fail("csv: empty input (missing magic line)");
  ++line_number;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.rfind(kCsvMagicPrefix, 0) != 0) {
    fail("csv: line 1: expected magic '#xpt v" +
         std::to_string(kSchemaVersion) + " csv', got '" + line + "'");
  }
  {
    std::uint64_t version = 0;
    const std::string rest = line.substr(kCsvMagicPrefix.size());
    const std::size_t space = rest.find(' ');
    if (space == std::string::npos ||
        !parse_u64_token(rest.substr(0, space), version) ||
        rest.substr(space + 1) != "csv") {
      fail("csv: line 1: malformed magic line '" + line + "'");
    }
    if (version != kSchemaVersion) {
      fail("csv: line 1: unsupported schema version " +
           std::to_string(version) + " (this build reads v" +
           std::to_string(kSchemaVersion) + ")");
    }
    log.meta.schema = static_cast<std::uint32_t>(version);
  }

  // Metadata lines, then the column-header line.
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string where = "csv: line " + std::to_string(line_number);
    if (line[0] == '#') {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        fail(where + ": metadata line '" + line + "' is not '#key=value'");
      }
      apply_meta_kv(log.meta, line.substr(1, eq - 1), line.substr(eq + 1),
                    where);
      continue;
    }
    // First non-metadata line is the column header; validate it names
    // exactly the schema's columns in order.
    const std::vector<std::string> columns = split_csv(line);
    if (columns.size() != kFieldCount) {
      fail(where + ": header has " + std::to_string(columns.size()) +
           " columns, schema v" + std::to_string(kSchemaVersion) + " has " +
           std::to_string(kFieldCount));
    }
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      if (columns[f] != kFieldNames[f]) {
        fail(where + ", column " + std::to_string(f + 1) + ": expected '" +
             std::string(kFieldNames[f]) + "', got '" + columns[f] + "'");
      }
    }
    saw_header = true;
    break;
  }
  if (!saw_header) fail("csv: missing column-header line");

  // Rows.
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> tokens = split_csv(line);
    if (tokens.size() != kFieldCount) {
      fail("csv: line " + std::to_string(line_number) + ": has " +
           std::to_string(tokens.size()) + " fields, schema has " +
           std::to_string(kFieldCount));
    }
    TraceRecord record;
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      parse_csv_field(tokens[f], f, line_number, record);
    }
    if (const std::string_view bad = validate_record(record); !bad.empty()) {
      fail("csv: line " + std::to_string(line_number) + ", field '" +
           std::string(bad) + "': value out of range for the schema");
    }
    log.records.push_back(record);
  }
  return log;
}

// --------------------------------------------------------------- binary ----

constexpr char kBinaryMagic[4] = {'X', 'P', 'T', 'B'};
// A metadata string longer than this is corruption, not configuration.
constexpr std::uint32_t kMaxMetaString = 1u << 20;

template <typename T>
void put(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

void write_binary(std::ostream& out, const TraceLog& log) {
  out.write(kBinaryMagic, sizeof kBinaryMagic);
  put(out, log.meta.schema);
  const auto kv = meta_to_kv(log.meta);
  put(out, static_cast<std::uint32_t>(kv.size()));
  for (const auto& [key, value] : kv) {
    put(out, static_cast<std::uint32_t>(key.size()));
    out.write(key.data(), static_cast<std::streamsize>(key.size()));
    put(out, static_cast<std::uint32_t>(value.size()));
    out.write(value.data(), static_cast<std::streamsize>(value.size()));
  }
  put(out, static_cast<std::uint64_t>(log.records.size()));
  for (const TraceRecord& record : log.records) {
    const char* base = reinterpret_cast<const char*>(&record);
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      out.write(base + kFields[f].offset,
                static_cast<std::streamsize>(field_size(kFields[f].type)));
    }
  }
}

template <typename T>
bool get(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  return in.gcount() == sizeof value;
}

TraceLog read_binary(std::istream& in) {
  TraceLog log;
  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() != sizeof magic ||
      std::memcmp(magic, kBinaryMagic, sizeof magic) != 0) {
    fail("binary: not an xpt trace (bad magic)");
  }
  std::uint32_t version = 0;
  if (!get(in, version)) fail("binary: truncated header (missing version)");
  if (version != kSchemaVersion) {
    fail("binary: unsupported schema version " + std::to_string(version) +
         " (this build reads v" + std::to_string(kSchemaVersion) + ")");
  }
  log.meta.schema = version;

  std::uint32_t meta_count = 0;
  if (!get(in, meta_count)) fail("binary: truncated header (metadata count)");
  if (meta_count > 1024) {
    fail("binary: implausible metadata entry count " +
         std::to_string(meta_count));
  }
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    const std::string where = "binary header entry " + std::to_string(i);
    const auto read_string = [&](const char* what) {
      std::uint32_t length = 0;
      if (!get(in, length) || length > kMaxMetaString) {
        fail(where + ": truncated or implausible " + what + " length");
      }
      std::string value(length, '\0');
      in.read(value.data(), length);
      if (in.gcount() != static_cast<std::streamsize>(length)) {
        fail(where + ": truncated " + what);
      }
      return value;
    };
    const std::string key = read_string("key");
    const std::string value = read_string("value");
    apply_meta_kv(log.meta, key, value, where);
  }

  std::uint64_t row_count = 0;
  if (!get(in, row_count)) fail("binary: truncated header (row count)");
  log.records.reserve(static_cast<std::size_t>(row_count));
  for (std::uint64_t r = 0; r < row_count; ++r) {
    TraceRecord record;
    char* base = reinterpret_cast<char*>(&record);
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      const std::size_t size = field_size(kFields[f].type);
      in.read(base + kFields[f].offset, static_cast<std::streamsize>(size));
      if (in.gcount() != static_cast<std::streamsize>(size)) {
        fail("binary: row " + std::to_string(r) + " of " +
             std::to_string(row_count) + ", field '" +
             std::string(kFieldNames[f]) + "': truncated");
      }
    }
    if (const std::string_view bad = validate_record(record); !bad.empty()) {
      fail("binary: row " + std::to_string(r) + ", field '" +
           std::string(bad) + "': value out of range for the schema");
    }
    log.records.push_back(record);
  }
  return log;
}

}  // namespace

void write_trace(std::ostream& out, const TraceLog& log, TraceFormat format) {
  if (format == TraceFormat::kCsv) {
    write_csv(out, log);
  } else {
    write_binary(out, log);
  }
  if (!out) throw std::runtime_error("trace: write failed (stream error)");
}

TraceLog read_trace(std::istream& in, TraceFormat format) {
  return format == TraceFormat::kCsv ? read_csv(in) : read_binary(in);
}

void write_trace_file(const std::string& path, const TraceLog& log) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  write_trace_file(path, log, csv ? TraceFormat::kCsv : TraceFormat::kBinary);
}

void write_trace_file(const std::string& path, const TraceLog& log,
                      TraceFormat format) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("trace: cannot open for write: " + path);
  write_trace(out, log, format);
  out.close();
  if (!out) throw std::runtime_error("trace: write failed: " + path);
}

TraceLog read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open: " + path);
  char magic[4] = {};
  in.read(magic, sizeof magic);
  if (in.gcount() != sizeof magic) {
    throw std::invalid_argument("trace: " + path +
                                ": too short to be a trace file");
  }
  in.seekg(0);
  if (std::memcmp(magic, kBinaryMagic, sizeof magic) == 0) {
    return read_binary(in);
  }
  if (std::memcmp(magic, "#xpt", 4) == 0) {
    return read_csv(in);
  }
  throw std::invalid_argument(
      "trace: " + path +
      ": unrecognized format (expected 'XPTB' binary or '#xpt' csv magic)");
}

}  // namespace xp::trace
