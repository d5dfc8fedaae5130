#include "core/data_quality.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "core/analysis.h"
#include "stats/distributions.h"

namespace xp::core {

namespace {

/// Upper tail of the 1-df chi-square: P(X > chi) = 2 * (1 - Phi(sqrt(chi)))
/// — exact, via the normal CDF the stats layer already ships.
double chi_square_1df_p(double chi) noexcept {
  if (chi <= 0.0) return 1.0;
  return 2.0 * (1.0 - stats::normal_cdf(std::sqrt(chi)));
}

}  // namespace

std::string DataQualityReport::summary() const {
  std::string out;
  for (const std::string& issue : issues) {
    if (!out.empty()) out += "; ";
    out += issue;
  }
  return out;
}

DataQualityReport assess_quality(const ObservationTable& table,
                                 double intended_treated_fraction,
                                 const DataQualityOptions& options) {
  DataQualityReport report;
  report.computed = true;
  report.intended_treated_fraction = intended_treated_fraction;

  // Unit-level tallies off the first column (rows are aligned across
  // metric columns; treatment and time coordinates are per unit).
  if (!table.columns.empty()) {
    for (const Observation& row : table.columns.front()) {
      ++report.rows;
      (row.treated ? report.treated_rows : report.control_rows) += 1;
      (row.treated ? report.treated_weight : report.control_weight) +=
          row.weight;
    }
    const HourlyCellCount cells = count_hourly_cells(table.columns.front());
    report.hours_observed = cells.hours;
    report.arm_hour_cells = cells.cells;
  }

  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    MetricQuality quality;
    quality.metric = table.metrics[c];
    quality.rows = table.columns[c].size();
    for (const Observation& row : table.columns[c]) {
      if (!std::isfinite(row.outcome)) ++quality.non_finite;
    }
    report.non_finite_outcomes += quality.non_finite;
    report.metrics.push_back(std::move(quality));
  }

  if (report.rows < options.min_rows) {
    std::ostringstream issue;
    issue << "only " << report.rows << " unit row(s); min_rows = "
          << options.min_rows;
    report.issues.push_back(issue.str());
  }
  for (const MetricQuality& quality : report.metrics) {
    if (quality.rows > 0 && quality.non_finite == quality.rows) {
      report.issues.push_back("metric \"" + quality.metric +
                              "\": every outcome is non-finite");
    }
  }

  // Sample-ratio mismatch: 1-df Pearson chi-square of the observed
  // treated/control split against the intended fraction, weighted by
  // Observation::weight (identical to row counts under unit weights).
  // Degenerate intents (0 or 1) flag outright if the forbidden arm has
  // any weight.
  if (report.rows > 0 && report.treated_weight + report.control_weight > 0.0) {
    const double treated = report.treated_weight;
    const double control = report.control_weight;
    const double n = treated + control;
    const double expected_treated = intended_treated_fraction * n;
    const double expected_control = n - expected_treated;
    if (expected_treated <= 0.0 || expected_control <= 0.0) {
      const double forbidden = expected_treated <= 0.0 ? treated : control;
      report.srm_p_value = forbidden > 0.0 ? 0.0 : 1.0;
      report.srm_chi_square =
          forbidden > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    } else {
      const double dt = treated - expected_treated;
      const double dc = control - expected_control;
      report.srm_chi_square =
          dt * dt / expected_treated + dc * dc / expected_control;
      report.srm_p_value = chi_square_1df_p(report.srm_chi_square);
    }
    report.observed_treated_fraction = treated / n;
    report.srm_flag = report.srm_p_value < options.srm_p_threshold;
    if (report.srm_flag) {
      std::ostringstream issue;
      issue << "sample-ratio mismatch: observed treated fraction "
            << report.observed_treated_fraction << " vs intended "
            << intended_treated_fraction << " (p = " << report.srm_p_value
            << ")";
      report.issues.push_back(issue.str());
    }
  }
  return report;
}

}  // namespace xp::core
