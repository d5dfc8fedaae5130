// First-class estimators: the analysis half of the spec -> data ->
// estimate pipeline, mirroring the scenario registry on the data side.
//
// An Estimator turns one metric column of a completed ExperimentReport
// (replicate observation tables) into EstimateRows (named EffectEstimate
// rows with CIs and per-replicate spread). lab::run_experiment's analysis
// stage is the one path from a report to EstimateTables: it runs each
// (estimator, metric) pair as one job and labels the table with the
// registry key, which is an estimator's only name. Every experiment
// design the paper compares is published as one registry key:
//
//   naive/ab              account-level A/B read within each link
//   paired_link/tte       approximate TTE from the paired-link contrast
//                         (hourly FE row + the account-level Fig-13 row)
//   paired_link/spillover spillover s(p) from the control-cell contrast
//   switchback/tte        emulated switchback (alternating days), TTE
//   event_study/tte       emulated event study (mid-week switch), TTE
//   gradual/contrast      gradual-deployment reads: per-allocation tau
//                         and spillover plus the cross-allocation TTE
//   quantile/ladder       p50/p90/p99 quantile treatment effects
//   aa/null               A/A null check (link-similarity difference)
//   guardrail/srm         sample-ratio-mismatch guardrail: observed vs
//                         intended treated fraction per cell; significant
//                         rows mean the cell's data cannot be trusted
//
// Implementations must be stateless after construction: estimate_metric
// is called concurrently from pipeline threads, and any randomness (e.g.
// bootstrap resampling) must derive from EstimatorOptions::seed so the
// result is a pure function of (report, metric, options) — bit-for-bit
// identical at any thread count. Each call is one of the pipeline's
// analysis jobs and runs serially; an estimator never fans out itself.
//
// Degenerate inputs (a missing arm, too few hourly cells or accounts for
// the underlying analysis, all-NaN outcomes, failed/skipped/quality-held
// cells) produce null rows — default EffectEstimates with p = 1 and
// significant = false — rather than throwing: the pipeline's job is to
// survey every requested estimator over every metric, and one
// unanswerable (estimator, metric) pair must not destroy the rest of the
// report. A *misspelled metric* is different: requesting a metric the
// report's tables do not carry throws std::invalid_argument listing the
// available metric columns (the registry convention), never a silent
// null row.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis.h"
#include "core/estimate_table.h"
#include "core/experiment_data.h"

namespace xp::core {

struct EstimatorOptions {
  /// Substream base for resampling estimators (quantile bootstrap); the
  /// pipeline derives it per (estimator, metric) with metric_seed().
  std::uint64_t seed = 7;
  AnalysisOptions analysis;
};

class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Estimate rows for one metric column across all the report's cells.
  virtual std::vector<EstimateRow> estimate_metric(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const = 0;
};

/// Deterministic substream for metric column `metric_index` under `base`
/// (the same counter-based scheme as lab::cell_seed).
std::uint64_t metric_seed(std::uint64_t base,
                          std::size_t metric_index) noexcept;

using EstimatorFactory = std::function<std::unique_ptr<Estimator>()>;

/// Publish an estimator. Throws std::invalid_argument on duplicate names.
/// The key is the estimator's only name: the pipeline labels each report
/// table with it.
void register_estimator(std::string name, EstimatorFactory factory);

/// Instantiate a registered estimator. Unknown names throw
/// std::invalid_argument listing every registered estimator.
std::unique_ptr<Estimator> make_estimator(std::string_view name);

/// Sorted names of all registered estimators (built-ins included).
std::vector<std::string> estimator_names();

}  // namespace xp::core
