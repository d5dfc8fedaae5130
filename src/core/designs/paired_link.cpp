#include "core/designs/paired_link.h"

#include <cmath>

namespace xp::core {

PairedLinkReport analyze_paired_link(std::span<const Observation> rows) {
  PairedLinkReport report;

  // Cell means for the four (link, arm) cells.
  for (int link = 0; link < 2; ++link) {
    for (int arm = 0; arm < 2; ++arm) {
      RowFilter filter;
      filter.link = link;
      filter.treated = arm;
      double sum = 0.0;
      std::size_t n = 0;
      for (const Observation& row : rows) {
        if (matches(row, filter) && std::isfinite(row.outcome)) {
          sum += row.outcome;
          ++n;
        }
      }
      report.cell_mean[link][arm] = n == 0 ? 0.0 : sum / static_cast<double>(n);
      report.cell_count[link][arm] = n;
    }
  }
  // Global control condition: the control cell of the mostly-control link.
  report.baseline = report.cell_mean[kMostlyControlLink][0];

  AnalysisOptions analysis;
  analysis.baseline_override = report.baseline;

  // Naive A/B tests within each link (account-level, as practitioners do).
  {
    RowFilter filter;
    filter.link = kMostlyTreatedLink;
    report.naive_high = account_level_analysis(select(rows, filter), analysis);
  }
  {
    RowFilter filter;
    filter.link = kMostlyControlLink;
    report.naive_low = account_level_analysis(select(rows, filter), analysis);
  }

  // Approximate TTE: treated on the 95% link vs control on the 5% link.
  report.tte = hourly_fe_analysis(tte_contrast(rows), analysis);

  // Spillover: control on the 95% link vs control on the 5% link.
  {
    RowFilter exposed_filter;
    exposed_filter.link = kMostlyTreatedLink;
    exposed_filter.treated = 0;
    RowFilter control_filter;
    control_filter.link = kMostlyControlLink;
    control_filter.treated = 0;
    report.spillover = hourly_fe_analysis(
        cross_cell_contrast(rows, exposed_filter, control_filter), analysis);
  }

  return report;
}

std::vector<Observation> tte_contrast(std::span<const Observation> rows) {
  RowFilter treated_filter;
  treated_filter.link = kMostlyTreatedLink;
  treated_filter.treated = 1;
  RowFilter control_filter;
  control_filter.link = kMostlyControlLink;
  control_filter.treated = 0;
  return cross_cell_contrast(rows, treated_filter, control_filter);
}

std::vector<Observation> cross_cell_contrast(std::span<const Observation> rows,
                                             const RowFilter& exposed,
                                             const RowFilter& control) {
  auto obs = select(rows, exposed, /*relabel=*/1);
  const auto other = select(rows, control, /*relabel=*/0);
  obs.insert(obs.end(), other.begin(), other.end());
  return obs;
}

}  // namespace xp::core
