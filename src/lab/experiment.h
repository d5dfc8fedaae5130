// The one experiment pipeline: ExperimentSpec -> run_experiment -> Report.
//
// A spec names a registered scenario, the allocations to sweep, the
// number of replicate worlds per allocation (bootstrap weeks, repeated
// lab runs), and the registered estimators to run over the completed
// tables. The pipeline fans every (allocation, replicate) cell and then
// every (estimator, metric) analysis job across the runner; each job
// derives its seed from the spec seed and its own index (counter-based
// stats::mix64 substreams), so the report — tables AND estimates — is
// bit-for-bit identical at any thread count.
//
// The report/cell/table types live in core/experiment_data.h so the core
// Estimator interface can consume them; they are re-exported here for
// pipeline callers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/experiment_data.h"
#include "lab/registry.h"
#include "util/runner.h"

namespace xp::lab {

using ExperimentCell = core::ExperimentCell;
using ExperimentReport = core::ExperimentReport;

/// What the pipeline does when a cell's simulation throws.
///
///   fail_fast — request a cooperative stop (util::StopToken), let cells
///               already running finish, skip cells not yet started, and
///               rethrow the first error (the default).
///   skip      — mark the cell CellState::kSkipped and carry on; the
///               report is partial and its manifest says so.
///   retry(n)  — re-run the cell with a fresh deterministic seed
///               (substream_seed(cell_seed, attempt)) up to n attempts,
///               then mark it CellState::kFailed.
///
/// A blown work budget (SourceOptions::budget / util::BudgetExceeded) is
/// NOT a failure in this sense: it is deterministic — the same cap
/// against the same (config, seed) trips identically every time — so the
/// cell is marked CellState::kBudgetExceeded under *every* policy,
/// without retries and without aborting the sweep.
struct FailurePolicy {
  enum class Mode : std::uint8_t { kFailFast, kSkip, kRetry };
  Mode mode = Mode::kFailFast;
  /// Total simulation attempts per cell (retry mode only; must be >= 1).
  std::uint32_t max_attempts = 3;

  static FailurePolicy fail_fast() noexcept { return {}; }
  static FailurePolicy skip() noexcept {
    FailurePolicy policy;
    policy.mode = Mode::kSkip;
    return policy;
  }
  static FailurePolicy retry(std::uint32_t max_attempts) noexcept {
    FailurePolicy policy;
    policy.mode = Mode::kRetry;
    policy.max_attempts = max_attempts;
    return policy;
  }
};

struct ExperimentSpec {
  std::string scenario;  ///< registry key (see lab/registry.h)
  /// Source knobs, including the per-cell work budget
  /// (SourceOptions::budget — events/ticks/rows by backend).
  SourceOptions tuning;
  /// Sweep points; empty means {source->default_allocation()}.
  std::vector<double> allocations;
  /// Independent replicate worlds per allocation.
  std::size_t replicates = 1;
  /// Analysis stage: estimator registry keys (core/estimator.h) to run
  /// over the completed tables; empty skips the stage. Unknown keys
  /// throw before any simulation work starts.
  std::vector<std::string> estimators;
  std::uint64_t seed = 1;
  /// Forwarded to every estimator (confidence level, Newey-West lag).
  core::AnalysisOptions analysis;
  /// Per-cell failure isolation (see FailurePolicy above).
  FailurePolicy on_failure;
  /// Data-quality guardrail thresholds (core/data_quality.h); every OK
  /// cell gets a DataQualityReport, and unusable tables are quarantined
  /// as CellState::kQualityHold.
  core::DataQualityOptions quality;
};

/// Check the source knobs every factory relies on (a finite, positive
/// duration_scale) before a source is built; throws std::invalid_argument
/// naming the field after `owner` ("ExperimentSpec: tuning." for a spec).
void validate(const SourceOptions& options,
              const std::string& owner = "SourceOptions: ");

/// Validate a spec the way video::validate checks a ClusterConfig: throws
/// std::invalid_argument naming the offending field (empty scenario, zero
/// replicates, non-finite or non-positive tuning.duration_scale,
/// empty/out-of-range/duplicate allocations, duplicate estimator keys,
/// retry with zero attempts). run_experiment checks the tuning knobs
/// before it builds the source and calls this after resolving an empty
/// allocation list to the source's default, so specs that rely on that
/// default remain valid.
void validate(const ExperimentSpec& spec);

/// Deterministic seed of cell `index` under base seed `base` (the same
/// counter-based substream scheme stats::bootstrap uses).
std::uint64_t cell_seed(std::uint64_t base, std::size_t index) noexcept;

/// Deterministic substream base of estimator `estimator_index` under the
/// spec seed; the analysis job of (estimator e, metric m) runs
/// Estimator::estimate_metric with core::metric_seed(base, m).
std::uint64_t estimator_seed(std::uint64_t base,
                             std::size_t estimator_index) noexcept;

/// Crash-safe durability for run_experiment (see lab/journal.h for the
/// on-disk format and the content-key staleness contract). With a
/// non-empty directory, every terminal cell is appended to
/// <directory>/cells.xpj as it completes, and a later run of the same
/// spec replays journaled cells instead of recomputing them — the
/// resumed report (cells and estimates) is bit-identical to an
/// uninterrupted run at any thread count. An empty directory (the
/// default) disables journaling entirely.
struct JournalOptions {
  std::string directory;
};

/// Run the spec on the process-wide runner / an explicit runner (tests pin
/// 1 vs N threads with the latter). Every cell, the source's own fan-out
/// (a fleet's shards) and every analysis job run on that one runner. The
/// JournalOptions overloads resume from / append to a cell journal (see
/// above).
ExperimentReport run_experiment(const ExperimentSpec& spec);
ExperimentReport run_experiment(const ExperimentSpec& spec,
                                util::Runner& runner);
ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const JournalOptions& journal);
ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const JournalOptions& journal,
                                util::Runner& runner);

}  // namespace xp::lab
