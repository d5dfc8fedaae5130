// The unit-outcome row consumed by every estimator and design.
//
// In the paper's terms (Section 2): a unit i with treatment assignment
// A_i and observed outcome Y_i(A), plus the time coordinates the
// Appendix-B analysis needs (hour-of-day fixed effects, absolute hour for
// Newey-West ordering) and the grouping used by specific designs (which
// link, which account).
#pragma once

#include <cstdint>

namespace xp::core {

struct Observation {
  std::uint64_t unit = 0;      ///< session id
  std::uint64_t account = 0;   ///< account id (account-level SEs)
  bool treated = false;        ///< A_i
  double outcome = 0.0;        ///< Y_i(A)
  std::uint32_t hour_of_day = 0;  ///< 0-23, fixed-effect level
  std::uint64_t hour_index = 0;   ///< absolute hour since epoch (NW order)
  std::uint32_t day = 0;          ///< absolute day (switchback intervals)
  std::uint8_t group = 0;         ///< design-specific stratum (e.g. link)
  /// How many underlying sessions this row stands for. 1.0 for the
  /// record-materializing backends (one row per session); streamed cell
  /// sketches (core/cell_accumulator.h) emit one row per histogram bin
  /// with outcome = bin mean and weight = bin count. Weighted means with
  /// unit weights are bit-identical to the unweighted arithmetic
  /// (1.0 * x is exact and integer counts are exact in doubles), so the
  /// record path is unchanged by this field.
  double weight = 1.0;
};

}  // namespace xp::core
