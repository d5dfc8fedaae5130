// Figure 9: percentage of retransmitted bytes, split by peak vs off-peak
// hours. Capping reduces congestion loss at peak (-20% in the paper) but
// *raises the percentage* off-peak (+16%): the fixed recovery overhead is
// divided by fewer sent bytes. Absolute retransmitted bytes go down. The
// world is Figure 5's week 1.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/session_metrics.h"

namespace {

struct Cell {
  double retx_fraction_sum = 0.0;
  double retx_bytes = 0.0;
  double sent_bytes = 0.0;
  double n = 0.0;
};

bool is_peak(std::uint32_t hour) { return hour >= 18 && hour <= 23; }

const char* verdict(bool holds) { return holds ? "holds" : "does not hold"; }

}  // namespace

int main() {
  xp::bench::header(
      "Figure 9 — % retransmitted bytes, peak vs off-peak "
      "(treated on link 1 vs control on link 2)");
  const auto report = xp::bench::bootstrap_weeks("paired_links/experiment", 1);
  const auto& table = report.cell(0, 0).table;
  const auto& retx = table.column(
      xp::core::metric_name(xp::core::Metric::kRetransmitFraction));
  const auto& sent =
      table.column(xp::core::metric_name(xp::core::Metric::kBytes));

  // cells[period][arm]: period 0 = off-peak, 1 = peak; arm: TTE contrast.
  Cell cells[2][2];
  for (std::size_t i = 0; i < retx.size(); ++i) {
    const auto& row = retx[i];  // sent[i] is the same session's row
    int arm;
    if (row.group == 0 && row.treated) {
      arm = 1;  // capped world
    } else if (row.group == 1 && !row.treated) {
      arm = 0;  // uncapped world
    } else {
      continue;
    }
    Cell& cell = cells[is_peak(row.hour_of_day) ? 1 : 0][arm];
    cell.retx_fraction_sum += row.outcome;
    cell.retx_bytes += row.outcome * sent[i].outcome;
    cell.sent_bytes += sent[i].outcome;
    cell.n += 1.0;
  }

  std::printf("%-10s | %12s %12s | %10s\n", "period", "uncapped", "capped",
              "effect");
  double effect[2];
  for (int period = 0; period < 2; ++period) {
    const double uncapped =
        cells[period][0].retx_fraction_sum / cells[period][0].n;
    const double capped =
        cells[period][1].retx_fraction_sum / cells[period][1].n;
    effect[period] = capped / uncapped - 1.0;
    std::printf("%-10s | %11.4f%% %11.4f%% | %+9.1f%%\n",
                period == 1 ? "peak" : "off-peak", uncapped * 100.0,
                capped * 100.0, 100.0 * effect[period]);
  }
  std::printf("  (paper: -20%% at peak, +16%% off-peak, +10%% overall; "
              "down at peak, up off-peak: %s)\n",
              verdict(effect[1] < 0.0 && effect[0] > 0.0));

  std::printf("\nabsolute volumes (per-session average):\n");
  bool retx_bytes_fall = true;
  for (int period = 0; period < 2; ++period) {
    const double uncapped = cells[period][0].retx_bytes / cells[period][0].n;
    const double capped = cells[period][1].retx_bytes / cells[period][1].n;
    retx_bytes_fall = retx_bytes_fall && capped < uncapped;
    std::printf(
        "  %-9s: retx bytes %8.0f -> %8.0f ; sent bytes %9.0f -> %9.0f\n",
        period == 1 ? "peak" : "off-peak", uncapped, capped,
        cells[period][0].sent_bytes / cells[period][0].n,
        cells[period][1].sent_bytes / cells[period][1].n);
  }
  std::printf(
      "  (paper: absolute retransmitted bytes fall in BOTH periods; only "
      "the percentage rises off-peak: %s)\n",
      verdict(retx_bytes_fall));
  return 0;
}
