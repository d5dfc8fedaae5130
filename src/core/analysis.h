// The paper's two analysis pipelines (Appendix B).
//
// 1. Hourly aggregation + fixed-effects regression with Newey-West HAC
//    standard errors (lag 2):
//
//        Z_t(A) = c + beta0 * A + beta_t + eps
//
//    where Z_t(A) is the mean outcome of arm A in hour t and beta_t are
//    hour-of-day fixed effects. Aggregating to hours makes the worst-case
//    assumption that sessions within an hour are perfectly correlated —
//    deliberately conservative. Used for TTE and spillover estimates.
//
// 2. Account-level difference in means (Welch): the standard way naive
//    A/B tests are read out, with much tighter intervals (Figure 13
//    contrasts the two).
//
// Both pipelines (and the mean helpers below) silently skip rows whose
// outcome is non-finite: corrupted telemetry (video::TelemetryFault NaNs
// a record's network fields) degrades the sample size, not the estimate.
// A column that is *entirely* non-finite leaves nothing to aggregate and
// fails the downstream row guards into a null estimate.
#pragma once

#include <span>
#include <vector>

#include "core/estimands.h"
#include "core/observation.h"

namespace xp::core {

struct HourlyCell {
  std::uint64_t hour_index = 0;
  std::uint32_t hour_of_day = 0;
  bool treated = false;
  double mean_outcome = 0.0;
  std::size_t sessions = 0;  ///< finite rows aggregated into the cell
  /// Total Observation::weight behind the mean — equal to `sessions` on
  /// record-path tables (unit weights), the underlying session count on
  /// streamed sketch tables.
  double weight = 0.0;
};

/// Aggregate observations into per-(hour, arm) means — the Z_t(A) of
/// Appendix B. Cells are ordered by (hour_index, arm) so the regression's
/// Newey-West lag structure sees consecutive hours adjacently. Means are
/// weighted by Observation::weight, so pre-aggregated sketch rows
/// (outcome = bin mean, weight = bin count) reproduce the session-level
/// cell means.
std::vector<HourlyCell> aggregate_hourly(std::span<const Observation> rows);

/// How many distinct absolute hours and distinct (hour_index, arm) cells
/// `rows` cover, counting every row (finite outcome or not). Exact for
/// every uint64_t hour_index.
struct HourlyCellCount {
  std::size_t hours = 0;
  std::size_t cells = 0;
};
HourlyCellCount count_hourly_cells(std::span<const Observation> rows);

struct AnalysisOptions {
  double confidence_level = 0.95;
  std::size_t newey_west_lag = 2;  ///< hours, as in the paper
  /// Baseline for relative effects: when 0, uses the control-arm mean of
  /// the supplied rows.
  double baseline_override = 0.0;
  /// Resampling analyses (the quantile-effect bootstrap) draw this many
  /// replicates; smoke tests shrink it the way duration_scale shrinks
  /// simulated horizons.
  std::size_t bootstrap_replicates = 600;
};

/// Pipeline 1: hourly aggregation -> hour-of-day FE regression ->
/// Newey-West(lag) inference on the treatment coefficient.
EffectEstimate hourly_fe_analysis(std::span<const Observation> rows,
                                  const AnalysisOptions& options = {});

/// Pipeline 2: account-level Welch difference in means.
EffectEstimate account_level_analysis(std::span<const Observation> rows,
                                      const AnalysisOptions& options = {});

/// Mean outcome of one arm (helper for baselines and cell plots),
/// weighted by Observation::weight.
double arm_mean(std::span<const Observation> rows, bool treated);

}  // namespace xp::core
