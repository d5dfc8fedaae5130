// Figure 2a: eleven A/B tests where 10 applications use 1 or 2 parallel
// TCP Reno connections over a shared 10 Gb/s bottleneck. Every interior
// allocation shows ~2x throughput for the treatment with similar
// retransmit rates — yet TTE for throughput is zero and TTE for
// retransmissions is large.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header(
      "Figure 2a — applications using 1 vs 2 parallel TCP connections "
      "(10 apps, 10 Gb/s droptail bottleneck)");

  // 3.3 s warmup + 11 s window: the canonical lab horizon scaled by 1.1.
  const auto sweep = xp::bench::lab_points(
      xp::bench::lab_sweep("dumbbell/two_connections", 1.1));

  std::printf("%6s %6s | %14s %14s %8s | %12s %12s | %10s\n", "alloc",
              "#twoC", "tput_2conn", "tput_1conn", "ratio", "retx_2conn",
              "retx_1conn", "agg_Gbps");
  for (const auto& p : sweep) {
    const double ratio = p.mu_control_throughput > 0.0
                             ? p.mu_treated_throughput /
                                   p.mu_control_throughput
                             : 0.0;
    std::printf(
        "%6.2f %6zu | %11.1f Mbps %11.1f Mbps %7.2fx | %11.4f%% %11.4f%% | "
        "%9.2f\n",
        p.allocation, p.treated_count, p.mu_treated_throughput / 1e6,
        p.mu_control_throughput / 1e6, ratio,
        p.mu_treated_retransmit * 100.0, p.mu_control_retransmit * 100.0,
        p.aggregate_throughput / 1e9);
  }

  // The estimands (paper: TTE tput = 0, TTE retx = +200%; spillover at
  // p=0.9: -25% tput, +175% retx).
  const auto& all_control = sweep.front();
  const auto& all_treated = sweep.back();
  const auto& p90 = sweep[sweep.size() - 2];
  std::printf("\nTTE (all 2-conn vs all 1-conn):\n");
  std::printf("  throughput: %+5.1f%%   (paper: ~0%%)\n",
              100.0 * (all_treated.mu_treated_throughput /
                           all_control.mu_control_throughput -
                       1.0));
  std::printf("  retransmit: %+5.1f%%  (paper: ~+200%% of the rate)\n",
              100.0 * (all_treated.mu_treated_retransmit /
                           std::max(1e-9, all_control.mu_control_retransmit) -
                       1.0));
  std::printf("spillover at p=0.9 (on 1-conn control apps):\n");
  std::printf("  throughput: %+5.1f%%  (paper: ~-25%%)\n",
              100.0 * (p90.mu_control_throughput /
                           all_control.mu_control_throughput -
                       1.0));
  std::printf("  retransmit: %+5.1f%% (paper: ~+175%%)\n",
              100.0 * (p90.mu_control_retransmit /
                           std::max(1e-9, all_control.mu_control_retransmit) -
                       1.0));
  return 0;
}
