// Figure 2b: A/B tests of TCP pacing at every allocation. In the paper's
// lab, paced Reno obtained ~50% lower throughput at any allocation while
// TTE was ~0 — a treatment that A/B tests reject although deploying it
// everywhere is harmless (and spillover-positive).
//
// NOTE (see EXPERIMENTS.md): in this simulator's droptail microphysics
// the *sign* of the pacing ATE is inverted — paced flows dodge the
// burst-clustered drops and win — but the interference structure the
// figure demonstrates (large constant A/B effect at every p, TTE ~ 0,
// opposite-sign spillover) is identical.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  xp::bench::header(
      "Figure 2b — paced vs unpaced TCP Reno connections "
      "(10 connections, 10 Gb/s droptail bottleneck)");

  // 3.3 s warmup + 11 s window: the canonical lab horizon scaled by 1.1.
  const auto sweep =
      xp::bench::lab_points(xp::bench::lab_sweep("dumbbell/pacing", 1.1));

  std::printf("%6s %6s | %14s %14s | %12s %12s | %10s\n", "alloc", "#paced",
              "tput_paced", "tput_unpaced", "retx_paced", "retx_unpaced",
              "agg_Gbps");
  for (const auto& p : sweep) {
    std::printf(
        "%6.2f %6zu | %11.1f Mbps %11.1f Mbps | %11.4f%% %11.4f%% | %9.2f\n",
        p.allocation, p.treated_count, p.mu_treated_throughput / 1e6,
        p.mu_control_throughput / 1e6, p.mu_treated_retransmit * 100.0,
        p.mu_control_retransmit * 100.0, p.aggregate_throughput / 1e9);
  }

  const auto& all_control = sweep.front();
  const auto& all_treated = sweep.back();
  std::printf("\nTTE (all paced vs all unpaced):\n");
  std::printf("  throughput: %+5.1f%%   (paper: ~0%%)\n",
              100.0 * (all_treated.mu_treated_throughput /
                           all_control.mu_control_throughput -
                       1.0));
  std::printf("  retransmit: %+5.1f%%  (paper: large decrease)\n",
              100.0 * (all_treated.mu_treated_retransmit /
                           std::max(1e-9, all_control.mu_control_retransmit) -
                       1.0));
  return 0;
}
