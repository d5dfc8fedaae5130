// Ablations for the design choices DESIGN.md calls out:
//  1. Newey-West truncation lag (the paper uses 2 hours).
//  2. Switchback interval length (the paper recommends ~1 day).
//  3. Bottleneck buffer depth in the lab (the paper's switch has 1 BDP).
//  4. Quantile treatment effects vs the mean effect (Section 2's "Note on
//     averages"): congestion lives in the tail.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/analysis.h"
#include "core/designs/paired_link.h"
#include "core/designs/switchback.h"
#include "core/quantile_effects.h"
#include "core/session_metrics.h"
#include "lab/scenarios.h"

int main() {
  // Figure 5's week 1: the five-day capping world.
  const auto report = xp::bench::bootstrap_weeks("paired_links/experiment", 1);
  const auto& table = report.cell(0, 0).table;
  using xp::core::Metric;

  xp::bench::header("Ablation 1 — Newey-West lag (min RTT TTE)");
  const auto& min_rtt = table.column(metric_name(Metric::kMinRtt));
  const auto obs = xp::core::tte_contrast(min_rtt);
  std::printf("%6s | %10s %10s\n", "lag", "estimate", "std error");
  for (std::size_t lag : {0u, 1u, 2u, 4u, 8u}) {
    xp::core::AnalysisOptions options;
    options.newey_west_lag = lag;
    const auto estimate = xp::core::hourly_fe_analysis(obs, options);
    std::printf("%6zu | %+9.4f %10.4f%s\n", lag, estimate.estimate,
                estimate.std_error,
                lag == 2 ? "   <- paper's choice" : "");
  }

  xp::bench::header(
      "Ablation 2 — switchback interval length (min RTT TTE; alternating "
      "intervals over 5 days)");
  std::printf("%14s | %10s %22s\n", "interval", "estimate", "95% CI width");
  for (int days_per_interval : {1, 2}) {
    std::vector<bool> day_treated(5);
    for (int d = 0; d < 5; ++d) {
      day_treated[d] = (d / days_per_interval) % 2 == 0;
    }
    const auto estimate = xp::core::hourly_fe_analysis(
        xp::core::switchback_observations(min_rtt, day_treated));
    std::printf("%11d d  | %+9.4f %22.4f\n", days_per_interval,
                estimate.estimate, estimate.ci_high - estimate.ci_low);
  }
  std::printf("(longer intervals reduce carryover but shrink the sample of "
              "intervals)\n");

  xp::bench::header(
      "Ablation 3 — bottleneck buffer depth (parallel-connections ATE at "
      "p=0.5, 10 apps)");
  std::printf("%10s | %12s %12s %12s\n", "buffer", "tput_2conn",
              "tput_1conn", "retx_1conn");
  for (double bdp : {0.25, 0.5, 1.0, 2.0}) {
    xp::lab::LabConfig config;
    config.dumbbell.buffer_bdp_multiple = bdp;
    config.dumbbell.warmup = 2.0;
    config.dumbbell.duration = 8.0;
    const auto lab = xp::lab::run_lab(xp::lab::Treatment::kTwoConnections,
                                      5, config);
    double t = 0.0, c = 0.0, rc = 0.0;
    for (const auto& unit : lab.units) {
      if (unit.treated) {
        t += unit.throughput_bps / 5.0;
      } else {
        c += unit.throughput_bps / 5.0;
        rc += unit.retransmit_fraction / 5.0;
      }
    }
    std::printf("%7.2f BDP | %9.1f Mb %9.1f Mb %11.4f%%%s\n", bdp, t / 1e6,
                c / 1e6, rc * 100.0,
                bdp == 1.0 ? "  <- paper's switch" : "");
  }

  xp::bench::header(
      "Ablation 4 — quantile treatment effects (play delay, TTE contrast)");
  const auto delay_rows =
      xp::core::tte_contrast(table.column(metric_name(Metric::kPlayDelay)));
  const std::vector<double> quantiles{0.5, 0.9, 0.99};
  const auto ladder = xp::core::quantile_effect_ladder(delay_rows,
                                                       quantiles);
  xp::core::AnalysisOptions mean_options;
  const auto mean_effect =
      xp::core::account_level_analysis(delay_rows, mean_options);
  std::printf("%8s | %12s %12s\n", "quantile", "effect (s)", "baseline");
  for (const auto& row : ladder) {
    std::printf("%8.2f | %+11.4f %12.4f%s\n", row.quantile,
                row.effect.estimate, row.effect.baseline,
                row.effect.significant ? " *" : "");
  }
  std::printf("%8s | %+11.4f %12.4f   (mean effect, for contrast)\n",
              "mean", mean_effect.estimate, mean_effect.baseline);
  // "Dwarfs" read as an order of magnitude; ladder runs p50 .. p99.
  const double tail_ratio = std::fabs(ladder.back().effect.estimate) /
                            std::fabs(ladder.front().effect.estimate);
  std::printf("(Section 2: congestion concentrates in the tail, the p99 "
              "effect dwarfs the median effect;\n |p99| / |median| = %.1f, "
              "at least 10 to dwarf: %s)\n",
              tail_ratio, tail_ratio >= 10.0 ? "holds" : "does not hold");
  return 0;
}
