// Figure 1: the conceptual picture. (a) Without interference, mu_T(p) and
// mu_C(p) are flat in the allocation p, so any A/B test estimates TTE.
// (b) With congestion interference both curves move with p and the A/B
// difference is constant while TTE is zero.
//
// We realize (a) by giving every application its own isolated bottleneck
// (no shared queue -> SUTVA holds mechanically) and (b) by the shared-
// bottleneck parallel-connections world of Figure 2a.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "sim/dumbbell.h"

namespace {

// Isolated world: each app alone on a private 1 Gb/s link; treatment is
// two connections (which cannot help: the private link is the cap).
double isolated_mu(bool treated) {
  xp::sim::DumbbellConfig config;
  config.bottleneck_bps = 1e9;
  config.warmup = 2.0;
  config.duration = 6.0;
  std::vector<xp::sim::AppSpec> specs{
      {treated ? std::size_t{2} : std::size_t{1},
       xp::sim::CcAlgorithm::kReno, false, "solo"}};
  return xp::sim::run_dumbbell(config, specs)
      .apps[0]
      .metrics.throughput_bps;
}

}  // namespace

int main() {
  xp::bench::header("Figure 1 — potential-outcome curves vs allocation p");

  std::printf("(a) no interference (isolated per-app bottlenecks):\n");
  const double iso_treated = isolated_mu(true);
  const double iso_control = isolated_mu(false);
  std::printf("%6s | %12s %12s\n", "p", "mu_T(p)", "mu_C(p)");
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    // Isolated units do not depend on p at all.
    std::printf("%6.1f | %9.1f Mbps %9.1f Mbps\n", p, iso_treated / 1e6,
                iso_control / 1e6);
  }
  std::printf("  -> tau(p) constant and equal to TTE; SUTVA holds.\n");

  std::printf("\n(b) congestion interference (shared 10 Gb/s bottleneck):\n");
  // 2.7 s warmup + 9 s window: the canonical lab horizon scaled by 0.9.
  const auto sweep = xp::bench::lab_points(
      xp::bench::lab_sweep("dumbbell/two_connections", 0.9));
  std::printf("%6s | %12s %12s %12s\n", "p", "mu_T(p)", "mu_C(p)",
              "tau(p)");
  for (const auto& point : sweep) {
    if (point.treated_count == 0 ||
        point.treated_count == 10) {
      continue;
    }
    std::printf("%6.1f | %9.1f Mbps %9.1f Mbps %9.1f Mbps\n",
                point.allocation, point.mu_treated_throughput / 1e6,
                point.mu_control_throughput / 1e6,
                (point.mu_treated_throughput -
                 point.mu_control_throughput) /
                    1e6);
  }
  std::printf(
      "  -> both curves fall with p; tau(p) stays large while TTE "
      "(mu_T(1) - mu_C(0)) is ~0.\n");
  return 0;
}
