#include "core/report.h"

#include <cstdio>
#include <ostream>
#include <string>

#include "core/session_metrics.h"

namespace xp::core {

std::string format_relative(const EffectEstimate& estimate) {
  char buffer[80];
  std::snprintf(buffer, sizeof(buffer), "%+7.1f%% [%+7.1f%%,%+7.1f%%]%s",
                estimate.relative() * 100.0,
                estimate.relative_ci_low() * 100.0,
                estimate.relative_ci_high() * 100.0,
                estimate.significant ? "*" : " ");
  return buffer;
}

void print_figure5_table(std::ostream& os, const EstimateTable& naive,
                         const EstimateTable& tte,
                         const EstimateTable& spillover) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s | %-32s %-32s %-32s %-32s",
                "metric", "naive tau(0.05)", "naive tau(0.95)",
                "TTE (paired link)", "spillover s(0.95)");
  os << line << '\n' << std::string(160, '-') << '\n';
  for (Metric metric : kAllMetrics) {
    const std::string name(metric_name(metric));
    std::snprintf(
        line, sizeof(line), "%-22s | %-32s %-32s %-32s %-32s", name.c_str(),
        format_relative(naive.row(name + "/tau(link2)").effect()).c_str(),
        format_relative(naive.row(name + "/tau(link1)").effect()).c_str(),
        format_relative(tte.row(name + "/tte").effect()).c_str(),
        format_relative(spillover.row(name + "/spillover").effect()).c_str());
    os << line << '\n';
  }
  os << "  (* = significant at 95%; values relative to the global control "
        "cell)\n";
}

void print_estimate_table(std::ostream& os, const EstimateTable& table) {
  char line[256];
  std::snprintf(line, sizeof(line), "%-38s | %-34s %-28s", table.estimator.c_str(),
                "estimate (replicate 1)", "across-replicate relative");
  os << line << '\n' << std::string(104, '-') << '\n';
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const EstimateRow& row = table.rows[i];
    const EstimateSpread spread = relative_spread(row);
    std::snprintf(line, sizeof(line),
                  "%-38s | %-34s %+6.1f%% [%+6.1f%%, %+6.1f%%]",
                  table.names[i].c_str(),
                  format_relative(row.effect()).c_str(), spread.mean * 100.0,
                  spread.min * 100.0, spread.max * 100.0);
    os << line << '\n';
  }
}

}  // namespace xp::core
