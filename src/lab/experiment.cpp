#include "lab/experiment.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/data_quality.h"
#include "lab/journal.h"
#include "stats/rng.h"
#include "util/budget.h"

namespace xp::lab {

namespace {

void check(bool ok, const std::string& field, const std::string& requirement) {
  if (!ok) {
    throw std::invalid_argument("ExperimentSpec: " + field + " " +
                                requirement);
  }
}

/// Run one cell's simulation under the failure policy. Writes the table,
/// status (state, error, attempts), and the seed actually used; rethrows
/// only in fail-fast mode (the Runner collects the first exception,
/// cancels not-yet-started cells through the stop token, and rethrows
/// after the in-flight cells finish). A blown work budget is terminal
/// under every policy: util::BudgetExceeded is deterministic in
/// (config, seed), so retrying or aborting the sweep over it is noise.
void run_cell(core::ExperimentCell& cell, const DataSource& source,
              std::uint64_t base_seed, const FailurePolicy& policy,
              util::Runner& runner) {
  const std::uint32_t max_attempts =
      policy.mode == FailurePolicy::Mode::kRetry ? policy.max_attempts : 1;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    // Attempt 0 keeps the canonical cell seed (a clean first run is
    // bit-identical under every policy); retries draw fresh deterministic
    // substreams of it, so a re-run sweep retries identically too.
    cell.seed =
        attempt == 0 ? base_seed : stats::substream_seed(base_seed, attempt);
    cell.status.attempts = attempt + 1;
    try {
      cell.table = source.run(cell.allocation, cell.seed, runner);
      cell.status.state = core::CellState::kOk;
      cell.status.error.clear();
      return;
    } catch (const util::BudgetExceeded& e) {
      cell.status.error = e.what();
      cell.status.state = core::CellState::kBudgetExceeded;
      cell.table = ObservationTable{};
      return;
    } catch (const std::exception& e) {
      cell.status.error = e.what();
    }
  }
  switch (policy.mode) {
    case FailurePolicy::Mode::kFailFast:
      throw std::runtime_error("cell (allocation " +
                               std::to_string(cell.allocation) +
                               ", replicate " +
                               std::to_string(cell.replicate) +
                               ") failed: " + cell.status.error);
    case FailurePolicy::Mode::kSkip:
      cell.status.state = core::CellState::kSkipped;
      break;
    case FailurePolicy::Mode::kRetry:
      cell.status.state = core::CellState::kFailed;
      break;
  }
  cell.table = ObservationTable{};
}

}  // namespace

void validate(const SourceOptions& options, const std::string& owner) {
  if (!(std::isfinite(options.duration_scale) &&
        options.duration_scale > 0.0)) {
    throw std::invalid_argument(owner +
                                "duration_scale must be finite and positive");
  }
}

void validate(const ExperimentSpec& spec) {
  check(!spec.scenario.empty(), "scenario", "must name a registered scenario");
  check(spec.replicates > 0, "replicates", "must be positive");
  validate(spec.tuning, "ExperimentSpec: tuning.");
  check(!spec.allocations.empty(), "allocations",
        "must contain at least one sweep point");
  for (std::size_t i = 0; i < spec.allocations.size(); ++i) {
    const double p = spec.allocations[i];
    const std::string field = "allocations[" + std::to_string(i) + "]";
    check(std::isfinite(p) && p >= 0.0 && p <= 1.0, field,
          "must be a finite treatment fraction in [0, 1]");
    for (std::size_t j = 0; j < i; ++j) {
      check(spec.allocations[j] != p, field,
            "duplicates allocations[" + std::to_string(j) +
                "] (estimate rows are keyed by allocation)");
    }
  }
  for (std::size_t i = 0; i < spec.estimators.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      check(spec.estimators[j] != spec.estimators[i],
            "estimators[" + std::to_string(i) + "]",
            "duplicates estimators[" + std::to_string(j) + "] (\"" +
                spec.estimators[i] + "\")");
    }
  }
  check(spec.on_failure.mode != FailurePolicy::Mode::kRetry ||
            spec.on_failure.max_attempts >= 1,
        "on_failure.max_attempts", "must be >= 1 under retry");
}

std::uint64_t cell_seed(std::uint64_t base, std::size_t index) noexcept {
  return stats::substream_seed(base, index);
}

std::uint64_t estimator_seed(std::uint64_t base,
                             std::size_t estimator_index) noexcept {
  // A different odd constant than cell_seed, so the analysis substreams
  // never collide with the simulation substreams of the same spec seed.
  return stats::mix64(base ^ (0xbf58476d1ce4e5b9ULL + estimator_index));
}

ExperimentReport run_experiment(const ExperimentSpec& spec) {
  return run_experiment(spec, JournalOptions{}, util::global_runner());
}

ExperimentReport run_experiment(const ExperimentSpec& spec,
                                util::Runner& runner) {
  return run_experiment(spec, JournalOptions{}, runner);
}

ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const JournalOptions& journal) {
  return run_experiment(spec, journal, util::global_runner());
}

ExperimentReport run_experiment(const ExperimentSpec& spec,
                                const JournalOptions& journal_options,
                                util::Runner& runner) {
  // Source knobs are checked before any source is built: a factory may
  // simulate while it is constructed (trace/self_calibration does), where
  // a bad horizon scale would surface as some backend's own error instead
  // of naming the spec field.
  validate(spec.tuning, "ExperimentSpec: tuning.");
  const std::unique_ptr<DataSource> source =
      make_scenario(spec.scenario, spec.tuning);
  // Resolve every estimator key up front: an unknown key throws (listing
  // the registered alternatives) before any simulation work starts.
  std::vector<std::unique_ptr<core::Estimator>> estimators;
  estimators.reserve(spec.estimators.size());
  for (const std::string& key : spec.estimators) {
    estimators.push_back(core::make_estimator(key));
  }

  ExperimentReport report;
  report.scenario = spec.scenario;
  report.allocations = spec.allocations;
  if (report.allocations.empty()) {
    report.allocations.push_back(source->default_allocation());
  }
  // Validate with the allocation list resolved, so a spec that leans on
  // the source's default allocation stays legal while validate() itself
  // can insist on a non-empty sweep.
  {
    ExperimentSpec resolved = spec;
    resolved.allocations = report.allocations;
    validate(resolved);
  }
  report.replicates = spec.replicates;
  report.cells.resize(report.allocations.size() * report.replicates);

  // Durability (lab/journal.h): replay previously journaled cells of
  // this exact spec, append every newly terminal cell as it completes.
  // The journal's replay map is immutable during the sweep (appends only
  // touch the file), so find() is safe from every worker.
  std::unique_ptr<CellJournal> journal;
  std::uint64_t fingerprint = 0;
  if (!journal_options.directory.empty()) {
    fingerprint = journal_fingerprint(spec);
    // Sources with config beyond (scenario key, tuning) — a fleet's
    // per-shard deltas — fold their own hash in, so a changed config
    // never replays stale cells.
    if (const std::uint64_t source_fp = source->config_fingerprint();
        source_fp != 0) {
      fingerprint = stats::mix64(fingerprint ^ source_fp);
    }
    journal =
        std::make_unique<CellJournal>(journal_path(journal_options.directory));
  }

  // Cells are independent worlds with index-derived seeds written into
  // index-addressed slots: bit-for-bit identical at any thread count.
  // Failures are isolated per cell under spec.on_failure, and every OK
  // cell's table passes through the data-quality guardrails. The stop
  // token turns the first escaping error (a fail_fast cell, a dead
  // journal) into prompt cancellation: in-flight cells finish, cells not
  // yet started are skipped, and the error is rethrown.
  util::StopToken stop;
  runner.parallel_for(
      report.cells.size(),
      [&](std::size_t i) {
        try {
          ExperimentCell& cell = report.cells[i];
          cell.allocation = report.allocations[i / report.replicates];
          cell.replicate = i % report.replicates;
          const std::uint64_t seed = cell_seed(spec.seed, i);
          const std::uint64_t key =
              journal ? journal_cell_key(fingerprint, cell.allocation, seed)
                      : 0;
          if (journal) {
            if (const core::ExperimentCell* hit =
                    journal->find(key, cell.allocation, seed)) {
              cell.seed = hit->seed;
              cell.status = hit->status;
              cell.quality = hit->quality;
              cell.table = hit->table;
              return;  // replayed from disk; nothing to recompute
            }
          }
          run_cell(cell, *source, seed, spec.on_failure, runner);
          if (cell.status.ok()) {
            cell.quality = core::assess_quality(
                cell.table, source->intended_treated_fraction(cell.allocation),
                spec.quality);
            if (cell.quality.unusable()) {
              cell.status.state = core::CellState::kQualityHold;
              cell.status.error = cell.quality.summary();
            }
          }
          // Journal only terminal cells, after the quality gate: a crash
          // between append and return costs nothing (the cell replays),
          // a crash mid-append tears only the file's tail.
          if (journal) journal->append(key, cell);
        } catch (...) {
          stop.request_stop();
          throw;
        }
      },
      &stop);

  // Analysis stage — the one path from a report to estimate tables: fan
  // (estimator, metric) jobs across the runner. Each job's substream
  // derives from its (estimator, metric) indices — not from scheduling
  // order — and rows land in index-addressed slots, so the estimates are
  // bit-for-bit identical at any thread count. Tables are labelled by
  // registry key, an estimator's only name. Metric names anchor on the first OK cell so a failed replicate 0 does not
  // silence the analysis; with no OK cells at all, the report still
  // carries one (empty) named table per requested estimator.
  if (!estimators.empty()) {
    const core::ExperimentCell* first_ok = report.first_ok_cell();
    const std::vector<std::string> metrics =
        first_ok ? first_ok->table.metrics : std::vector<std::string>{};
    const std::size_t num_metrics = metrics.size();
    std::vector<std::vector<core::EstimateRow>> slots(estimators.size() *
                                                      num_metrics);
    runner.parallel_for(slots.size(), [&](std::size_t i) {
      const std::size_t e = i / num_metrics;
      const std::size_t m = i % num_metrics;
      core::EstimatorOptions options;
      options.analysis = spec.analysis;
      options.seed = core::metric_seed(estimator_seed(spec.seed, e), m);
      slots[i] = estimators[e]->estimate_metric(report, metrics[m], options);
    });

    report.estimates.resize(estimators.size());
    for (std::size_t e = 0; e < estimators.size(); ++e) {
      core::EstimateTable& table = report.estimates[e];
      table.estimator = spec.estimators[e];
      for (std::size_t m = 0; m < num_metrics; ++m) {
        for (core::EstimateRow& row : slots[e * num_metrics + m]) {
          table.add_row(std::move(row));
        }
      }
    }
  }
  return report;
}

}  // namespace xp::lab
