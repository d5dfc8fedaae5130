// Section 4.1's baseline-week link-similarity analysis: compare every
// metric between the two links on all-control data. Most metrics should
// show no significant difference; rebuffers show the pre-existing
// imbalance (the paper found link 1 had ~20% more sessions with
// rebuffers, attributed to content differences). The read is the aa/null
// estimator's link_diff row over one paired_links/baseline week.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/report.h"
#include "core/session_metrics.h"

int main() {
  xp::bench::header(
      "Baseline week (Section 4.1) — link 1 vs link 2 similarity, "
      "all-control traffic");
  const auto report = xp::bench::bootstrap_weeks("paired_links/baseline", 1,
                                                 {"aa/null"}, 1917);
  const auto& table = report.estimates_for("aa/null");
  std::printf("%-22s | %-34s %s\n", "metric", "link1 - link2 (relative)",
              "significant?");
  for (xp::core::Metric metric : xp::core::kAllMetrics) {
    const std::string name(xp::core::metric_name(metric));
    const auto& difference = table.row(name + "/link_diff").effect();
    std::printf("%-22s | %-34s %s\n", name.c_str(),
                xp::core::format_relative(difference).c_str(),
                difference.significant ? "YES" : "no");
  }
  std::printf(
      "\n(paper: links differed in bytes sent +5%%, stability +2%%, "
      "quality -0.1%%, and rebuffers +20%%; other metrics similar.\n"
      " our substrate injects the rebuffer imbalance via per-link "
      "content-stall rates.)\n");
  return 0;
}
