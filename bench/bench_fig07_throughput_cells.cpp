// Figure 7: the four (link x arm) cell means of client throughput with
// the estimands drawn between them — the "smoking gun": both naive A/B
// contrasts point one way, the cross-link TTE and spillover the other.
#include <iostream>

#include "bench/bench_util.h"
#include "core/designs/paired_link.h"
#include "core/report.h"
#include "core/session_metrics.h"

int main() {
  xp::bench::header("Figure 7 — throughput cell means and estimands");
  const auto run = xp::bench::main_experiment();
  auto report = xp::core::analyze_paired_link(
      xp::core::select(run.sessions, xp::core::Metric::kThroughput));
  report.metric = xp::core::Metric::kThroughput;
  xp::core::print_cell_table(std::cout, report, "Mb/s", 1e-6);
  std::printf("\nestimands (relative to the link-2 control cell):\n");
  std::printf("  naive tau(0.95): %s\n",
              xp::core::format_relative(report.naive_high).c_str());
  std::printf("  naive tau(0.05): %s\n",
              xp::core::format_relative(report.naive_low).c_str());
  std::printf("  TTE            : %s  (paper: +12%%)\n",
              xp::core::format_relative(report.tte).c_str());
  std::printf("  spillover      : %s  (paper: +16%%)\n",
              xp::core::format_relative(report.spillover).c_str());
  return 0;
}
