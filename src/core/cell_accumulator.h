// Streaming hourly×arm×link cell sketches — the fleet-scale alternative
// to materializing per-session record vectors.
//
// The paper's unit of inference is the link-hour cell (Appendix B), not
// the individual session, so a backend can fold each session into a
// fixed-size per-cell accumulator the moment it retires and never retain
// the raw row. Each (hour, arm, link, metric) cell keeps count / sum /
// sum-of-squares plus a fixed-edge histogram (the quantile-ladder
// sketch): peak memory is O(hours × metrics), independent of traffic.
// The idiom follows probe_staple (live traffic folded into per-session
// rows on the fly) and analyseTCP (one reduced row per connection).
//
// to_table() lowers a sketch into an ObservationTable the unchanged
// estimator registry consumes: one weighted Observation per non-empty
// histogram bin (outcome = bin mean, weight = bin count). Because each
// cell's total sum and count survive binning exactly, weighted hourly
// cell means — the input to every hourly-FE estimator — match the
// record-materializing path up to FP rounding. Unit-level reads
// (account-level, Welch, quantile ladder) are wrong on these tables
// today: they treat each bin row as one unit (ROADMAP open item 1).
//
// merge() is element-wise, so shard sketches combine in any grouping;
// callers fix the fold order (shard index) to make the floating-point
// sums bit-reproducible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/observation_table.h"
#include "core/session_metrics.h"
#include "video/session_record.h"

namespace xp::core {

/// Histogram width of the per-cell sketch. Metrics with naturally coarser
/// support (indicators, counts) use fewer bins; 24 is the stride.
inline constexpr std::size_t kSketchBins = 24;

/// Fixed upper bin edges for one metric (ascending, size < kSketchBins).
/// Values above the last edge land in the overflow bin. Shared by every
/// shard so sketches merge bin-for-bin.
std::span<const double> metric_sketch_edges(Metric metric) noexcept;

class CellAccumulator {
 public:
  /// `hours`: number of absolute simulation hours covered (e.g. 24 for a
  /// one-day world). Sessions whose start hour falls past the end are
  /// clamped into the last cell rather than dropped.
  explicit CellAccumulator(std::size_t hours);

  /// Fold one retired session into its (hour, arm, link) cell: every
  /// metric's finite value lands in a histogram bin; non-finite values
  /// (corrupted telemetry) are tallied separately.
  void add(const video::SessionRecord& record);

  /// Element-wise combine (counts, sums, NaN tallies). Throws
  /// std::invalid_argument when the hour spans differ.
  void merge(const CellAccumulator& other);

  std::size_t hours() const noexcept { return hours_; }

  /// Total sessions folded in (including ones with corrupted metrics).
  std::uint64_t sessions() const noexcept { return sessions_; }

  /// Raw moments of one (hour, arm, link, metric) cell — the merge /
  /// associativity contract surface.
  struct CellStats {
    std::uint64_t count = 0;   ///< finite outcomes
    double sum = 0.0;
    double sum_sq = 0.0;
    std::uint64_t nan_count = 0;  ///< non-finite outcomes
  };
  CellStats cell_stats(std::size_t hour, bool treated, int link,
                       Metric metric) const;

  /// Lower the sketch into the estimator-facing table: per metric, one
  /// Observation per non-empty (hour, arm, link, bin) with outcome = bin
  /// mean and weight = bin count, ordered by (hour, arm, link, bin);
  /// plus one NaN-outcome row per cell with weight = nan_count when the
  /// cell saw corrupted telemetry. Unit/account ids are synthetic running
  /// indices (bin rows have no per-session identity). Columns may have
  /// *different* row counts — consumers treat columns independently.
  ObservationTable to_table() const;

 private:
  std::size_t cell_index(std::size_t hour, bool treated,
                         int link) const noexcept;

  std::size_t hours_;
  std::uint64_t sessions_ = 0;
  // Flat [cell][metric][bin] / [cell][metric] layouts; cell = hour*4 +
  // arm*2 + link.
  std::vector<std::uint64_t> counts_;
  std::vector<double> sums_;
  std::vector<double> sum_sqs_;
  std::vector<std::uint64_t> nans_;
};

}  // namespace xp::core
