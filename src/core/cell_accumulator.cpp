#include "core/cell_accumulator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace xp::core {

namespace {

constexpr std::size_t kArms = 2;
constexpr std::size_t kLinks = 2;
constexpr std::size_t kMetricCount = std::size(kAllMetrics);

/// Geometric edge ladder: `n` edges from lo to hi inclusive. Log spacing
/// matches the heavy-tailed network metrics (throughput, bytes, RTT).
template <std::size_t N>
std::array<double, N> log_spaced(double lo, double hi) {
  std::array<double, N> edges{};
  const double step = std::log(hi / lo) / static_cast<double>(N - 1);
  for (std::size_t i = 0; i < N; ++i) {
    edges[i] = lo * std::exp(step * static_cast<double>(i));
  }
  edges[N - 1] = hi;  // exact endpoint, no exp/log rounding
  return edges;
}

template <std::size_t N>
std::array<double, N> linear_spaced(double lo, double hi) {
  std::array<double, N> edges{};
  const double step = (hi - lo) / static_cast<double>(N - 1);
  for (std::size_t i = 0; i < N; ++i) {
    edges[i] = lo + step * static_cast<double>(i);
  }
  edges[N - 1] = hi;
  return edges;
}

/// Half-integer edges 0.5, 1.5, ... — integer-valued metrics get one
/// exact bin per count, so their bin means are exact.
template <std::size_t N>
std::array<double, N> count_edges() {
  std::array<double, N> edges{};
  for (std::size_t i = 0; i < N; ++i) {
    edges[i] = static_cast<double>(i) + 0.5;
  }
  return edges;
}

}  // namespace

std::span<const double> metric_sketch_edges(Metric metric) noexcept {
  // 0/1 indicators: a single 0.5 edge makes both bins exact.
  static const std::array<double, 1> kBinary = {0.5};
  static const auto kThroughput = log_spaced<23>(1e5, 2e9);
  static const auto kRtt = log_spaced<23>(1e-3, 2.0);
  static const auto kPlayDelay = log_spaced<23>(1e-2, 50.0);
  static const auto kBitrate = log_spaced<23>(1e5, 1e8);
  static const auto kQuality = linear_spaced<23>(100.0 / 24.0, 100.0);
  static const auto kRetransmit = log_spaced<23>(1e-4, 0.5);
  static const auto kRebufferCount = count_edges<23>();
  static const auto kStability = linear_spaced<23>(1.0 / 24.0, 1.0);
  static const auto kBytes = log_spaced<23>(1e5, 1e12);
  switch (metric) {
    case Metric::kThroughput: return kThroughput;
    case Metric::kMinRtt: return kRtt;
    case Metric::kMeanRtt: return kRtt;
    case Metric::kPlayDelay: return kPlayDelay;
    case Metric::kCancelledStart: return kBinary;
    case Metric::kBitrate: return kBitrate;
    case Metric::kPerceptualQuality: return kQuality;
    case Metric::kRetransmitFraction: return kRetransmit;
    case Metric::kRebufferRate: return kBinary;
    case Metric::kRebufferCount: return kRebufferCount;
    case Metric::kStability: return kStability;
    case Metric::kBytes: return kBytes;
  }
  return kBinary;  // unreachable
}

CellAccumulator::CellAccumulator(std::size_t hours) : hours_(hours) {
  if (hours == 0) {
    throw std::invalid_argument("CellAccumulator: hours must be > 0");
  }
  const std::size_t cells = hours_ * kArms * kLinks;
  counts_.assign(cells * kMetricCount * kSketchBins, 0);
  sums_.assign(cells * kMetricCount * kSketchBins, 0.0);
  sum_sqs_.assign(cells * kMetricCount * kSketchBins, 0.0);
  nans_.assign(cells * kMetricCount, 0);
}

std::size_t CellAccumulator::cell_index(std::size_t hour, bool treated,
                                        int link) const noexcept {
  const std::size_t arm = treated ? 1 : 0;
  const std::size_t l = link != 0 ? 1 : 0;
  return (hour * kArms + arm) * kLinks + l;
}

void CellAccumulator::add(const video::SessionRecord& record) {
  ++sessions_;
  std::size_t hour = static_cast<std::size_t>(record.day) * 24 + record.hour;
  hour = std::min(hour, hours_ - 1);
  const std::size_t cell = cell_index(hour, record.treated, record.link);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const double v = metric_value(record, kAllMetrics[m]);
    if (!std::isfinite(v)) {
      ++nans_[cell * kMetricCount + m];
      continue;
    }
    const std::span<const double> edges = metric_sketch_edges(kAllMetrics[m]);
    const auto bin = static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
    const std::size_t at = (cell * kMetricCount + m) * kSketchBins + bin;
    counts_[at] += 1;
    sums_[at] += v;
    sum_sqs_[at] += v * v;
  }
}

void CellAccumulator::merge(const CellAccumulator& other) {
  if (other.hours_ != hours_) {
    throw std::invalid_argument(
        "CellAccumulator::merge: hour spans differ (" +
        std::to_string(hours_) + " vs " + std::to_string(other.hours_) + ")");
  }
  sessions_ += other.sessions_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
    sums_[i] += other.sums_[i];
    sum_sqs_[i] += other.sum_sqs_[i];
  }
  for (std::size_t i = 0; i < nans_.size(); ++i) nans_[i] += other.nans_[i];
}

CellAccumulator::CellStats CellAccumulator::cell_stats(std::size_t hour,
                                                       bool treated, int link,
                                                       Metric metric) const {
  if (hour >= hours_) {
    throw std::out_of_range("CellAccumulator::cell_stats: hour out of range");
  }
  std::size_t m = 0;
  while (m < kMetricCount && kAllMetrics[m] != metric) ++m;
  const std::size_t cell = cell_index(hour, treated, link);
  CellStats stats;
  const std::size_t base = (cell * kMetricCount + m) * kSketchBins;
  for (std::size_t b = 0; b < kSketchBins; ++b) {
    stats.count += counts_[base + b];
    stats.sum += sums_[base + b];
    stats.sum_sq += sum_sqs_[base + b];
  }
  stats.nan_count = nans_[cell * kMetricCount + m];
  return stats;
}

ObservationTable CellAccumulator::to_table() const {
  ObservationTable table;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    std::vector<Observation> rows;
    std::uint64_t next_id = 0;
    for (std::size_t hour = 0; hour < hours_; ++hour) {
      for (std::size_t arm = 0; arm < kArms; ++arm) {
        for (std::size_t link = 0; link < kLinks; ++link) {
          const std::size_t cell = (hour * kArms + arm) * kLinks + link;
          const std::size_t base = (cell * kMetricCount + m) * kSketchBins;
          Observation row;
          row.treated = arm == 1;
          row.group = static_cast<std::uint8_t>(link);
          row.hour_index = hour;
          row.hour_of_day = static_cast<std::uint16_t>(hour % 24);
          row.day = static_cast<std::uint32_t>(hour / 24);
          for (std::size_t b = 0; b < kSketchBins; ++b) {
            const std::uint64_t n = counts_[base + b];
            if (n == 0) continue;
            row.unit = next_id;
            row.account = next_id;
            ++next_id;
            row.outcome = sums_[base + b] / static_cast<double>(n);
            row.weight = static_cast<double>(n);
            rows.push_back(row);
          }
          const std::uint64_t nan_n = nans_[cell * kMetricCount + m];
          if (nan_n > 0) {
            row.unit = next_id;
            row.account = next_id;
            ++next_id;
            row.outcome = std::numeric_limits<double>::quiet_NaN();
            row.weight = static_cast<double>(nan_n);
            rows.push_back(row);
          }
        }
      }
    }
    table.add_column(std::string(metric_name(kAllMetrics[m])),
                     std::move(rows));
  }
  return table;
}

}  // namespace xp::core
