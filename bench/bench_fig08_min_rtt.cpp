// Figure 8: mean of per-session minimum RTT in each cell, normalized to
// the smallest cell value. Capping empties the standing queue for most of
// the peak: TTE -24%, spillover -27% in the paper, while both naive A/B
// tests report a small *increase*.
#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "core/designs/paired_link.h"
#include "core/report.h"
#include "core/session_metrics.h"

int main() {
  xp::bench::header("Figure 8 — min RTT cell means (normalized)");
  const auto run = xp::bench::main_experiment();
  const auto report = xp::core::analyze_paired_link(
      xp::core::select(run.sessions, xp::core::Metric::kMinRtt));

  double smallest = 1e18;
  for (int link = 0; link < 2; ++link) {
    for (int arm = 0; arm < 2; ++arm) {
      smallest = std::min(smallest, report.cell_mean[link][arm]);
    }
  }
  std::printf("%-28s %10s %10s\n", "", "control", "treatment");
  for (int link = 0; link < 2; ++link) {
    std::printf("link %d (%3.0f%% treated)        %10.3f %10.3f\n", link + 1,
                link == 0 ? 95.0 : 5.0,
                report.cell_mean[link][0] / smallest,
                report.cell_mean[link][1] / smallest);
  }
  std::printf("\n  naive tau(0.95): %s (paper: +5%%)\n",
              xp::core::format_relative(report.naive_high).c_str());
  std::printf("  naive tau(0.05): %s (paper: +12%%)\n",
              xp::core::format_relative(report.naive_low).c_str());
  std::printf("  TTE            : %s (paper: -24%%)\n",
              xp::core::format_relative(report.tte).c_str());
  std::printf("  spillover      : %s (paper: -27%%)\n",
              xp::core::format_relative(report.spillover).c_str());
  return 0;
}
