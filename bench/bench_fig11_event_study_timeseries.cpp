// Figure 11: throughput over time in the emulated bitrate-capping event
// study — control link data through day 3, then 95%-capped link data.
// Replicate weeks and the event-study TTE both come from one experiment
// spec; the printed series is the across-week mean with a min/max band.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/designs/event_study.h"
#include "core/report.h"

int main() {
  constexpr std::size_t kWeeks = 3;
  xp::bench::header(
      "Figure 11 — event study time series (capping deployed from day 4; "
      "mean over replicate weeks)");
  const auto report = xp::bench::bootstrap_weeks(
      "paired_links/experiment", kWeeks, {"event_study/tte"});

  // The same switch day the event_study/tte estimator derives for a
  // 5-day horizon ("between Thursday and Friday").
  constexpr std::uint32_t kSwitchDay = 3;

  // Hourly means over the 5 days, banded across the replicate weeks.
  constexpr std::size_t kHours = 5 * 24;
  std::vector<std::vector<xp::core::Observation>> weekly(kWeeks);
  for (std::size_t w = 0; w < kWeeks; ++w) {
    weekly[w] = xp::core::event_study_observations(
        report.cell(0, w).table.column("avg throughput"), kSwitchDay);
  }
  const auto band = xp::bench::hourly_band(weekly, kHours);
  const double top =
      *std::max_element(band.mean.begin(), band.mean.end());

  std::printf("%5s %5s %6s %15s | %-10s\n", "day", "hour", "tput",
              "[min, max]", "arm");
  for (std::size_t h = 0; h < kHours; h += 2) {
    if (band.weeks_with_data[h] == 0) continue;
    std::printf("%5zu %5zu %6.3f [%6.3f, %6.3f] | %-10s\n", h / 24, h % 24,
                band.mean[h] / top, band.min[h] / top, band.max[h] / top,
                h / 24 >= kSwitchDay ? "treated" : "control");
  }

  const auto& tte = report.estimates_for("event_study/tte")
                        .row("avg throughput/tte");
  std::printf("\nevent-study TTE this series implies: %s (week 1; "
              "across-week mean %+.1f%%)\n",
              xp::core::format_relative(tte.effect()).c_str(),
              100.0 * xp::core::relative_spread(tte).mean);
  return 0;
}
