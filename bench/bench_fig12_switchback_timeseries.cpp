// Figure 12: throughput over time in the emulated switchback — 95% capped
// on days 1, 3, 5; control on days 2, 4. The treatment effect is much
// harder to eyeball than in the paired-link series, which is exactly why
// switchbacks are analyzed statistically. Replicate weeks and the
// switchback TTE both come from one experiment spec; the printed series
// is the across-week mean with a min/max band.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/designs/switchback.h"
#include "core/report.h"

int main() {
  constexpr std::size_t kWeeks = 3;
  xp::bench::header(
      "Figure 12 — switchback time series (days 1, 3, 5 treated; mean "
      "over replicate weeks)");
  const auto report = xp::bench::bootstrap_weeks(
      "paired_links/experiment", kWeeks, {"switchback/tte"});

  // The same alternating-day assignment the switchback/tte estimator
  // derives for a 5-day horizon.
  const std::vector<bool> day_treated = {true, false, true, false, true};

  constexpr std::size_t kHours = 5 * 24;
  std::vector<std::vector<xp::core::Observation>> weekly(kWeeks);
  for (std::size_t w = 0; w < kWeeks; ++w) {
    weekly[w] = xp::core::switchback_observations(
        report.cell(0, w).table.column("avg throughput"), day_treated);
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
                day_treated[h / 24] ? "treated" : "control");
  }

  const auto& tte = report.estimates_for("switchback/tte")
                        .row("avg throughput/tte");
  std::printf("\nswitchback TTE this series implies: %s (week 1; "
              "across-week mean %+.1f%%)\n",
              xp::core::format_relative(tte.effect()).c_str(),
              100.0 * xp::core::relative_spread(tte).mean);
  return 0;
}
