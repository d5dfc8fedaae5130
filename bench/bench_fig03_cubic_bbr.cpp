// Figure 3: ten long-lived connections split between Cubic and BBR. A 10%
// BBR allocation looks like a huge throughput win; all-BBR equals
// all-Cubic (TTE ~ 0). (In shallow 1-BDP buffers deployed BBRv1 crushes
// minority Cubic — our substrate reproduces that published coexistence
// regime; the paper's lab additionally saw minority-Cubic winning.)
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header(
      "Figure 3 — Cubic vs BBR, 10 connections on a 10 Gb/s bottleneck "
      "(x = fraction using BBR)");

  // 3.3 s warmup + 11 s window: the canonical lab horizon scaled by 1.1.
  const auto sweep = xp::bench::lab_points(
      xp::bench::lab_sweep("dumbbell/bbr_vs_cubic", 1.1));

  std::printf("%6s %6s | %14s %14s | %10s\n", "alloc", "#bbr", "tput_bbr",
              "tput_cubic", "agg_Gbps");
  for (const auto& p : sweep) {
    std::printf("%6.2f %6zu | %11.1f Mbps %11.1f Mbps | %9.2f\n",
                p.allocation, p.treated_count,
                p.mu_treated_throughput / 1e6,
                p.mu_control_throughput / 1e6,
                p.aggregate_throughput / 1e9);
  }

  const auto& all_cubic = sweep.front();
  const auto& all_bbr = sweep.back();
  const auto& bbr10 = sweep[1];
  std::printf("\nnaive A/B at 10%% BBR: %+.0f%% throughput \"win\" for BBR\n",
              100.0 * (bbr10.mu_treated_throughput /
                           bbr10.mu_control_throughput -
                       1.0));
  std::printf("TTE (all BBR vs all Cubic): %+5.1f%%   (paper: ~0%%)\n",
              100.0 * (all_bbr.mu_treated_throughput /
                           all_cubic.mu_control_throughput -
                       1.0));
  return 0;
}
