// Adapter from the video substrate's telemetry rows to the experiment
// framework's observations, keyed by the QoE/network metrics the paper
// reports (Figure 5).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/observation.h"
#include "core/observation_table.h"
#include "video/session_record.h"

namespace xp::core {

enum class Metric {
  kThroughput,          ///< client-measured download throughput (b/s)
  kMinRtt,              ///< per-session minimum RTT (s)
  kMeanRtt,             ///< per-session mean RTT (s)
  kPlayDelay,           ///< startup latency (s)
  kCancelledStart,      ///< 1 if the user abandoned during startup
  kBitrate,             ///< time-weighted video bitrate (b/s)
  kPerceptualQuality,   ///< 0-100 quality score
  kRetransmitFraction,  ///< retransmitted / sent bytes
  kRebufferRate,        ///< 1 if the session had any rebuffer
  kRebufferCount,       ///< number of rebuffer events
  kStability,           ///< 1 / (1 + switches per minute)
  kBytes,               ///< total wire bytes sent
};

inline constexpr Metric kAllMetrics[] = {
    Metric::kThroughput,      Metric::kMinRtt,
    Metric::kMeanRtt,         Metric::kPlayDelay,
    Metric::kCancelledStart,  Metric::kBitrate,
    Metric::kPerceptualQuality, Metric::kRetransmitFraction,
    Metric::kRebufferRate,    Metric::kRebufferCount,
    Metric::kStability,       Metric::kBytes,
};

std::string_view metric_name(Metric metric) noexcept;

/// Extract the metric value from one telemetry row.
double metric_value(const video::SessionRecord& row, Metric metric) noexcept;

/// Row filter over extracted observations: -1 matches anything.
struct RowFilter {
  int link = -1;     ///< 0/1 or -1 (matched against Observation::group)
  int treated = -1;  ///< 0/1 or -1
};

bool matches(const Observation& row, const RowFilter& filter) noexcept;

/// The per-session table: one column per kAllMetrics entry, in that
/// order, each holding one row per record (the record's own arm label,
/// and its link as the observation's group). Every backend that has
/// per-session records builds its table here; it is the only route from
/// records to observations. Throws std::invalid_argument naming `hour`
/// if a record's hour does not fit Observation::hour_of_day (above 65535).
ObservationTable metric_table(std::span<const video::SessionRecord> rows);

/// Filter a metric column (e.g. one ObservationTable column).
/// `relabel_treated`: -1 keeps the row's own assignment; 0/1 forces the
/// observation's arm label (used when comparing cells across links, e.g.
/// the TTE contrast labels link-1 treated rows A=1 and link-2 control
/// rows A=0). Designs run off these rows directly.
std::vector<Observation> select(std::span<const Observation> rows,
                                const RowFilter& filter,
                                int relabel_treated = -1);

}  // namespace xp::core
