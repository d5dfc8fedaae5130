// Figure 8: mean of per-session minimum RTT in each cell, normalized to
// the smallest cell value. Capping empties the standing queue for most of
// the peak: TTE -24%, spillover -27% in the paper, while both naive A/B
// tests report a small *increase*. The world is Figure 5's week 1, and
// the estimands are read off the same registry estimators, so the numbers
// match Figure 5's min RTT row.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/analysis.h"
#include "core/report.h"
#include "core/session_metrics.h"

int main() {
  xp::bench::header("Figure 8 — min RTT cell means (normalized)");
  const auto report = xp::bench::bootstrap_weeks(
      "paired_links/experiment", 1,
      {"naive/ab", "paired_link/tte", "paired_link/spillover"});
  const std::string metric(xp::core::metric_name(xp::core::Metric::kMinRtt));
  const auto& rows = report.cell(0, 0).table.column(metric);

  double cell_mean[2][2];
  double smallest = 1e18;
  for (int link = 0; link < 2; ++link) {
    xp::core::RowFilter filter;
    filter.link = link;
    const auto within = xp::core::select(rows, filter);
    for (int arm = 0; arm < 2; ++arm) {
      cell_mean[link][arm] = xp::core::arm_mean(within, arm == 1);
      smallest = std::min(smallest, cell_mean[link][arm]);
    }
  }
  std::printf("%-28s %10s %10s\n", "", "control", "treatment");
  for (int link = 0; link < 2; ++link) {
    std::printf("link %d (%3.0f%% treated)        %10.3f %10.3f\n", link + 1,
                link == 0 ? 95.0 : 5.0, cell_mean[link][0] / smallest,
                cell_mean[link][1] / smallest);
  }

  const auto effect = [&](const char* estimator, const char* label) {
    return xp::core::format_relative(report.estimates_for(estimator)
                                         .row(metric + "/" + label)
                                         .effect());
  };
  std::printf("\n  naive tau(0.95): %s (paper: +5%%)\n",
              effect("naive/ab", "tau(link1)").c_str());
  std::printf("  naive tau(0.05): %s (paper: +12%%)\n",
              effect("naive/ab", "tau(link2)").c_str());
  std::printf("  TTE            : %s (paper: -24%%)\n",
              effect("paired_link/tte", "tte").c_str());
  std::printf("  spillover      : %s (paper: -27%%)\n",
              effect("paired_link/spillover", "spillover").c_str());
  return 0;
}
