#include "core/session_metrics.h"

#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

namespace xp::core {

std::string_view metric_name(Metric metric) noexcept {
  switch (metric) {
    case Metric::kThroughput:
      return "avg throughput";
    case Metric::kMinRtt:
      return "min RTT";
    case Metric::kMeanRtt:
      return "mean RTT";
    case Metric::kPlayDelay:
      return "play delay";
    case Metric::kCancelledStart:
      return "cancelled starts";
    case Metric::kBitrate:
      return "video bitrate";
    case Metric::kPerceptualQuality:
      return "perceptual quality";
    case Metric::kRetransmitFraction:
      return "% retransmitted bytes";
    case Metric::kRebufferRate:
      return "sessions w/ rebuffer";
    case Metric::kRebufferCount:
      return "rebuffer count";
    case Metric::kStability:
      return "video stability";
    case Metric::kBytes:
      return "bytes sent";
  }
  return "?";
}

double metric_value(const video::SessionRecord& row, Metric metric) noexcept {
  switch (metric) {
    case Metric::kThroughput:
      return row.avg_throughput_bps;
    case Metric::kMinRtt:
      return row.min_rtt;
    case Metric::kMeanRtt:
      return row.mean_rtt;
    case Metric::kPlayDelay:
      return row.play_delay;
    case Metric::kCancelledStart:
      return row.cancelled_start ? 1.0 : 0.0;
    case Metric::kBitrate:
      return row.avg_bitrate_bps;
    case Metric::kPerceptualQuality:
      return row.perceptual_quality;
    case Metric::kRetransmitFraction:
      return row.retransmit_fraction;
    case Metric::kRebufferRate:
      return row.had_rebuffer ? 1.0 : 0.0;
    case Metric::kRebufferCount:
      return static_cast<double>(row.rebuffer_count);
    case Metric::kStability:
      return row.stability;
    case Metric::kBytes:
      return row.bytes_sent;
  }
  return 0.0;
}

bool matches(const Observation& row, const RowFilter& filter) noexcept {
  if (filter.link >= 0 && row.group != filter.link) return false;
  return filter.treated < 0 || static_cast<int>(row.treated) == filter.treated;
}

std::vector<Observation> select(std::span<const Observation> rows,
                                const RowFilter& filter,
                                int relabel_treated) {
  std::size_t matched = 0;
  for (const Observation& row : rows) matched += matches(row, filter);
  std::vector<Observation> out;
  out.reserve(matched);
  for (const Observation& row : rows) {
    if (!matches(row, filter)) continue;
    Observation obs = row;
    if (relabel_treated >= 0) obs.treated = relabel_treated != 0;
    out.push_back(obs);
  }
  return out;
}

namespace {

// One metric column of metric_table.
std::vector<Observation> metric_column(
    std::span<const video::SessionRecord> rows, Metric metric) {
  std::vector<Observation> out;
  out.reserve(rows.size());
  for (const video::SessionRecord& row : rows) {
    Observation obs;
    obs.unit = row.session_id;
    obs.account = row.account_id;
    obs.treated = row.treated;
    obs.outcome = metric_value(row, metric);
    obs.hour_of_day = static_cast<std::uint16_t>(row.hour);
    obs.hour_index = static_cast<std::uint64_t>(row.day) * 24 + row.hour;
    obs.day = row.day;
    obs.group = row.link;
    out.push_back(obs);
  }
  return out;
}

}  // namespace

ObservationTable metric_table(std::span<const video::SessionRecord> rows) {
  // Observation::hour_of_day is 16 bits: refuse a wider hour rather than
  // wrap it (65539 would become hour 3).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].hour > std::numeric_limits<std::uint16_t>::max()) {
      throw std::invalid_argument(
          "metric_table: record " + std::to_string(i) + ": hour " +
          std::to_string(rows[i].hour) + " exceeds 65535");
    }
  }
  ObservationTable table;
  table.metrics.reserve(std::size(kAllMetrics));
  table.columns.reserve(std::size(kAllMetrics));
  for (Metric metric : kAllMetrics) {
    table.add_column(std::string(metric_name(metric)),
                     metric_column(rows, metric));
  }
  return table;
}

}  // namespace xp::core
