// Figure 6: hourly client throughput, normalized to the largest hourly
// value — (a) a baseline day with no treatment (links overlap), (b) an
// experiment day (the mostly-capped link stays uncongested longer and
// carries higher throughput through the peak). The worlds are the
// registry's: (a) is t01's paired_links/baseline week, (b) Figure 5's
// paired_links/experiment week 1; both plot day 1.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/session_metrics.h"

namespace {

// Mean hourly session throughput per link for one day of a world.
std::array<std::vector<double>, 2> hourly_throughput(
    const xp::lab::ExperimentReport& report, std::uint32_t day) {
  std::array<std::vector<double>, 2> sums{std::vector<double>(24, 0.0),
                                          std::vector<double>(24, 0.0)};
  std::array<std::vector<double>, 2> counts{std::vector<double>(24, 0.0),
                                            std::vector<double>(24, 0.0)};
  const auto& rows = report.cell(0, 0).table.column(
      xp::core::metric_name(xp::core::Metric::kThroughput));
  for (const auto& row : rows) {
    if (row.day != day) continue;
    sums[row.group][row.hour_of_day] += row.outcome;
    counts[row.group][row.hour_of_day] += 1.0;
  }
  for (int link = 0; link < 2; ++link) {
    for (int hour = 0; hour < 24; ++hour) {
      if (counts[link][hour] > 0.0) sums[link][hour] /= counts[link][hour];
    }
  }
  return sums;
}

void print_day(const std::array<std::vector<double>, 2>& series,
               const char* label) {
  double top = 0.0;
  for (const auto& link_series : series) {
    for (double v : link_series) top = std::max(top, v);
  }
  std::printf("\n%s (normalized to largest hourly value)\n", label);
  std::printf("%5s | %8s %8s\n", "hour", "link 1", "link 2");
  for (int hour = 0; hour < 24; ++hour) {
    std::printf("%5d | %8.3f %8.3f\n", hour, series[0][hour] / top,
                series[1][hour] / top);
  }
}

}  // namespace

int main() {
  xp::bench::header(
      "Figure 6 — hourly normalized throughput: baseline day vs "
      "experiment day");

  print_day(hourly_throughput(xp::bench::bootstrap_weeks(
                                  "paired_links/baseline", 1, {}, 1917),
                              1),
            "(a) baseline day: no capping anywhere — links overlap");
  print_day(hourly_throughput(
                xp::bench::bootstrap_weeks("paired_links/experiment", 1), 1),
            "(b) experiment day: link 1 95% capped — less congested and "
            "faster through the peak");
  return 0;
}
