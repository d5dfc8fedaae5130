// Report digests: one FNV-1a-64 value over everything a spec run
// produces that a user reads — every cell's identity, status and table
// (columns, aggregates, series) and every estimate row. Doubles are
// hashed by bit pattern, so NaN payloads and the sign of zero count, and
// two reports digest equal only when they are bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/experiment_data.h"

namespace perfbench {

class Fnv1a64 {
 public:
  void bytes(const void* data, std::size_t size) noexcept;
  /// Little-endian, independent of host byte order and struct padding.
  void u64(std::uint64_t value) noexcept;
  void f64(double value) noexcept;  ///< by bit pattern
  /// Length-prefixed, so {"ab","c"} and {"a","bc"} differ.
  void str(std::string_view value) noexcept;
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::uint64_t report_digest(const xp::core::ExperimentReport& report);

}  // namespace perfbench
