// Figure 7: the four (link x arm) cell means of client throughput with
// the estimands drawn between them — the "smoking gun": both naive A/B
// contrasts point one way, the cross-link TTE and spillover the other.
// The world is Figure 5's week 1, and the estimands are read off the same
// registry estimators, so the numbers match Figure 5's throughput row.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/analysis.h"
#include "core/report.h"
#include "core/session_metrics.h"

int main() {
  xp::bench::header("Figure 7 — throughput cell means and estimands");
  const auto report = xp::bench::bootstrap_weeks(
      "paired_links/experiment", 1,
      {"naive/ab", "paired_link/tte", "paired_link/spillover"});
  const std::string metric(
      xp::core::metric_name(xp::core::Metric::kThroughput));
  const auto& rows = report.cell(0, 0).table.column(metric);

  std::printf("cells for %s (Mb/s):\n", metric.c_str());
  std::printf("  %-26s %12s %12s\n", "", "control", "treatment");
  for (int link = 0; link < 2; ++link) {
    xp::core::RowFilter filter;
    filter.link = link;
    const auto within = xp::core::select(rows, filter);
    std::printf("  link %d (%3.0f%% treated)      %12.3f %12.3f\n", link + 1,
                link == 0 ? 95.0 : 5.0,
                xp::core::arm_mean(within, false) * 1e-6,
                xp::core::arm_mean(within, true) * 1e-6);
  }

  const auto effect = [&](const char* estimator, const char* label) {
    return xp::core::format_relative(report.estimates_for(estimator)
                                         .row(metric + "/" + label)
                                         .effect());
  };
  std::printf("\nestimands (relative to the link-2 control cell):\n");
  std::printf("  naive tau(0.95): %s\n",
              effect("naive/ab", "tau(link1)").c_str());
  std::printf("  naive tau(0.05): %s\n",
              effect("naive/ab", "tau(link2)").c_str());
  std::printf("  TTE            : %s  (paper: +12%%)\n",
              effect("paired_link/tte", "tte").c_str());
  std::printf("  spillover      : %s  (paper: +16%%)\n",
              effect("paired_link/spillover", "spillover").c_str());
  return 0;
}
