// The unit-outcome row consumed by every estimator and design.
//
// In the paper's terms (Section 2): a unit i with treatment assignment
// A_i and observed outcome Y_i(A), plus the time coordinates the
// Appendix-B analysis needs (hour-of-day fixed effects, absolute hour for
// Newey-West ordering) and the grouping used by specific designs (which
// link, which account).
//
// The field order is the packing: widest first, so the row is 48 bytes
// with no interior padding (the static_assert below pins it). Nothing
// else reads the order. The journal writes its on-disk row field by
// field, and report digests hash fields by name, each in their own fixed
// order, so reordering here moves neither.
#pragma once

#include <cstdint>

namespace xp::core {

struct Observation {
  std::uint64_t unit = 0;         ///< session id
  std::uint64_t account = 0;      ///< account id (account-level SEs)
  double outcome = 0.0;           ///< Y_i(A)
  std::uint64_t hour_index = 0;   ///< absolute hour since epoch (NW order)
  /// How many underlying sessions this row stands for. 1.0 for the
  /// record-materializing backends (one row per session); streamed cell
  /// sketches (core/cell_accumulator.h) emit one row per histogram bin
  /// with outcome = bin mean and weight = bin count. Weighted means with
  /// unit weights are bit-identical to the unweighted arithmetic
  /// (1.0 * x is exact and integer counts are exact in doubles), so the
  /// record path is unchanged by this field.
  double weight = 1.0;
  std::uint32_t day = 0;          ///< absolute day (switchback intervals)
  /// 0-23, fixed-effect level. Writers that read a wider hour refuse a
  /// value above 65535 instead of wrapping it; 24..65535 reach the
  /// analyses, whose guards null such rows.
  std::uint16_t hour_of_day = 0;
  bool treated = false;           ///< A_i
  std::uint8_t group = 0;         ///< design-specific stratum (e.g. link)
};

static_assert(sizeof(Observation) == 48 && alignof(Observation) == 8,
              "Observation is packed widest-first into 48 bytes");

}  // namespace xp::core
