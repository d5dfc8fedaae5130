#include "core/analysis.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "stats/ols.h"
#include "stats/ttest.h"

namespace xp::core {

std::vector<HourlyCell> aggregate_hourly(std::span<const Observation> rows) {
  // (hour_index, arm) -> (weighted sum, weight, count, hour_of_day).
  // With unit weights (every record-path table) the weighted arithmetic
  // is bit-identical to the old unweighted form: 1.0 * x is exact and
  // the weight total is an exact integer count.
  struct Agg {
    double sum = 0.0;
    double weight = 0.0;
    std::size_t n = 0;
    std::uint32_t hod = 0;
  };
  std::map<std::pair<std::uint64_t, bool>, Agg> cells;
  for (const Observation& row : rows) {
    if (!std::isfinite(row.outcome)) continue;  // corrupted telemetry
    Agg& cell = cells[{row.hour_index, row.treated}];
    cell.sum += row.weight * row.outcome;
    cell.weight += row.weight;
    cell.n += 1;
    cell.hod = row.hour_of_day;
  }
  std::vector<HourlyCell> out;
  out.reserve(cells.size());
  for (const auto& [key, agg] : cells) {
    if (agg.weight <= 0.0) continue;
    HourlyCell cell;
    cell.hour_index = key.first;
    cell.treated = key.second;
    cell.hour_of_day = agg.hod;
    cell.mean_outcome = agg.sum / agg.weight;
    cell.sessions = agg.n;
    cell.weight = agg.weight;
    out.push_back(cell);
  }
  // std::map ordering already yields (hour_index, arm) order.
  return out;
}

EffectEstimate hourly_fe_analysis(std::span<const Observation> rows,
                                  const AnalysisOptions& options) {
  const std::vector<HourlyCell> cells = aggregate_hourly(rows);
  if (cells.size() < 4) {
    throw std::invalid_argument("hourly_fe_analysis: too few hourly cells");
  }

  std::vector<double> z;
  std::vector<double> arm;
  std::vector<std::size_t> hod;
  z.reserve(cells.size());
  arm.reserve(cells.size());
  hod.reserve(cells.size());
  for (const HourlyCell& cell : cells) {
    z.push_back(cell.mean_outcome);
    arm.push_back(cell.treated ? 1.0 : 0.0);
    hod.push_back(cell.hour_of_day);
  }

  // Drop unused fixed-effect levels to keep X'X well-conditioned when the
  // data covers only part of a day.
  std::vector<std::size_t> levels(24, 0);
  for (std::size_t h : hod) levels[h] = 1;
  std::vector<std::size_t> compact(24, 0);
  std::size_t next = 0;
  for (std::size_t h = 0; h < 24; ++h) {
    if (levels[h]) compact[h] = next++;
  }
  for (std::size_t& h : hod) h = compact[h];

  stats::DesignBuilder design;
  design.intercept();
  design.column(arm, "treated");
  design.fixed_effects(hod, next, "hour");

  stats::OlsOptions ols_options;
  ols_options.covariance = stats::CovarianceType::kNeweyWest;
  ols_options.newey_west_lag = options.newey_west_lag;
  ols_options.confidence_level = options.confidence_level;
  const stats::OlsFit fit = stats::ols_fit(design.build(), z, ols_options);

  const stats::Coefficient& beta0 = fit.coefficients[1];
  EffectEstimate effect;
  effect.estimate = beta0.estimate;
  effect.std_error = beta0.std_error;
  effect.ci_low = beta0.ci_low;
  effect.ci_high = beta0.ci_high;
  effect.p_value = beta0.p_value;
  effect.significant = beta0.p_value < 1.0 - options.confidence_level;
  effect.baseline = options.baseline_override != 0.0
                        ? options.baseline_override
                        : arm_mean(rows, false);
  return effect;
}

EffectEstimate account_level_analysis(std::span<const Observation> rows,
                                      const AnalysisOptions& options) {
  // Aggregate to account means first (sessions from one account are not
  // independent), then Welch.
  std::map<std::uint64_t, std::pair<double, double>> treated_accounts;
  std::map<std::uint64_t, std::pair<double, double>> control_accounts;
  for (const Observation& row : rows) {
    if (!std::isfinite(row.outcome)) continue;  // corrupted telemetry
    auto& bucket = row.treated ? treated_accounts : control_accounts;
    auto& [sum, weight] = bucket[row.account];
    sum += row.weight * row.outcome;
    weight += row.weight;
  }
  std::vector<double> treated, control;
  treated.reserve(treated_accounts.size());
  control.reserve(control_accounts.size());
  for (const auto& [account, agg] : treated_accounts) {
    if (agg.second > 0.0) treated.push_back(agg.first / agg.second);
  }
  for (const auto& [account, agg] : control_accounts) {
    if (agg.second > 0.0) control.push_back(agg.first / agg.second);
  }
  if (treated.size() < 2 || control.size() < 2) {
    throw std::invalid_argument("account_level_analysis: too few accounts");
  }

  const stats::TTestResult t =
      stats::welch_t_test(treated, control, options.confidence_level);
  EffectEstimate effect;
  effect.estimate = t.estimate;
  effect.std_error = t.std_error;
  effect.ci_low = t.ci_low;
  effect.ci_high = t.ci_high;
  effect.p_value = t.p_value;
  effect.significant = t.significant;
  effect.baseline = options.baseline_override != 0.0
                        ? options.baseline_override
                        : arm_mean(rows, false);
  return effect;
}

double arm_mean(std::span<const Observation> rows, bool treated) {
  double sum = 0.0;
  double weight = 0.0;
  for (const Observation& row : rows) {
    if (row.treated == treated && std::isfinite(row.outcome)) {
      sum += row.weight * row.outcome;
      weight += row.weight;
    }
  }
  return weight == 0.0 ? 0.0 : sum / weight;
}

}  // namespace xp::core
