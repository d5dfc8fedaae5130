#include "workloads.h"

#include <cmath>
#include <span>
#include <stdexcept>

#include "core/designs/paired_link.h"

namespace perfbench {

namespace {

// Sizes are chosen so one spec run takes roughly a second at two
// threads: long enough to time, short enough that a run holds a dozen or
// more of them (the median over those is what is steady on a noisy VM).
constexpr double kOneDay = 0.2;  // duration_scale of one day (canonical: 5)

const std::vector<std::string> kAllEstimators = {
    "naive/ab",        "paired_link/tte", "paired_link/spillover",
    "switchback/tte",  "event_study/tte", "gradual/contrast",
    "quantile/ladder", "aa/null",         "guardrail/srm"};

std::vector<std::string> without_ladder() {
  std::vector<std::string> keys;
  for (const std::string& key : kAllEstimators) {
    if (key != "quantile/ladder") keys.push_back(key);
  }
  return keys;
}

// The ladder's rungs (p50/p90/p99, core/estimator.cpp).
constexpr std::uint64_t kLadderRungs = 3;

bool is_null(const xp::core::EffectEstimate& e) {
  return e.estimate == 0.0 && e.std_error == 0.0 && e.ci_low == 0.0 &&
         e.ci_high == 0.0 && e.p_value == 1.0 && !e.significant &&
         e.baseline == 0.0;
}

bool two_groups(std::span<const xp::core::Observation> rows) {
  bool g0 = false, g1 = false;
  for (const xp::core::Observation& row : rows) (row.group == 0 ? g0 : g1) = true;
  return g0 && g1;
}

/// Rows of cell (a, r)'s metric column; empty when the cell is not OK.
std::span<const xp::core::Observation> column(
    const xp::lab::ExperimentReport& report, std::size_t a, std::size_t r,
    const std::string& metric) {
  const xp::core::ExperimentCell& cell = report.cell(a, r);
  if (!cell.status.ok()) return {};
  return cell.table.column(metric);
}

/// Resample draws quantile/ladder makes on one metric of one allocation:
/// for every replicate world whose ladder input (the TTE contrast on
/// paired data, the rows as labeled otherwise; finite outcomes only) has
/// >= 10 rows per arm, rungs x bootstrap replicates x (treated + control
/// rows) index draws.
std::uint64_t ladder_draws(const xp::lab::ExperimentReport& report,
                           std::size_t a, const std::string& metric,
                           std::uint64_t bootstrap_replicates) {
  std::span<const xp::core::Observation> anchor;
  for (std::size_t r = 0; r < report.replicates && anchor.empty(); ++r) {
    anchor = column(report, a, r, metric);
  }
  const bool paired = two_groups(anchor);
  std::uint64_t draws = 0;
  for (std::size_t r = 0; r < report.replicates; ++r) {
    const auto rows = column(report, a, r, metric);
    const std::vector<xp::core::Observation> input =
        paired ? xp::core::tte_contrast(rows)
               : std::vector<xp::core::Observation>(rows.begin(), rows.end());
    std::uint64_t treated = 0, control = 0;
    for (const xp::core::Observation& row : input) {
      if (std::isfinite(row.outcome)) (row.treated ? treated : control) += 1;
    }
    if (treated >= 10 && control >= 10) {
      draws += kLadderRungs * bootstrap_replicates * (treated + control);
    }
  }
  return draws;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"capping_week", "fleet_day", "reanalysis", "lab_sweep"};
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  xp::lab::ExperimentSpec& spec = w.spec;
  spec.seed = seed;
  if (name == "capping_week") {
    // §4 capping week on the record path: four one-day replicate worlds,
    // every estimator but the ladder. Video tick + record tables dominate.
    spec.scenario = "paired_links/experiment";
    spec.tuning.duration_scale = kOneDay;
    spec.allocations = {0.95};
    spec.replicates = 4;
    spec.estimators = without_ladder();
    w.capping_check = true;
  } else if (name == "fleet_day") {
    // Eight unequal regions, one simulated day, streamed into hourly
    // sketches: sink path, sketch fold/merge, uneven shard fan-out.
    spec.scenario = "fleet/heterogeneous";
    spec.allocations = {0.95};
    spec.estimators = {"paired_link/tte", "switchback/tte", "event_study/tte",
                       "guardrail/srm"};
    w.capping_check = true;
  } else if (name == "reanalysis") {
    // Journaled half-day worlds re-read by all nine estimators: no
    // simulation in the timed run, quantile/ladder dominates.
    spec.scenario = "paired_links/experiment";
    spec.tuning.duration_scale = kOneDay / 2.0;
    spec.allocations = {0.95};
    spec.replicates = 2;
    spec.estimators = kAllEstimators;
    w.journaled = true;
  } else if (name == "lab_sweep") {
    // §3 bias sweep: packet-level BBR-vs-Cubic dumbbell at every treated
    // count of its ten apps — the only workload that runs sim/. Eleven
    // short cells balance better on two threads than a few long ones.
    spec.scenario = "dumbbell/bbr_vs_cubic";
    spec.tuning.duration_scale = 0.05;
    spec.allocations = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                        0.6, 0.7, 0.8, 0.9, 1.0};
    spec.estimators = {"naive/ab", "gradual/contrast"};
  } else {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'; known:" + known);
  }
  return w;
}

WorkCounts count_work(const xp::lab::ExperimentSpec& spec,
                      const xp::lab::ExperimentReport& report) {
  WorkCounts counts;
  for (const xp::core::ExperimentCell& cell : report.cells) {
    for (const auto& column : cell.table.columns) {
      counts.table_rows += column.size();
    }
    for (std::size_t i = 0; i < cell.table.aggregate_names.size(); ++i) {
      if (cell.table.aggregate_names[i] == "sessions_started") {
        counts.sessions +=
            static_cast<std::uint64_t>(cell.table.aggregates[i]);
      }
    }
  }
  for (const xp::core::EstimateTable& table : report.estimates) {
    counts.estimate_rows += table.rows.size();
    for (const xp::core::EstimateRow& row : table.rows) {
      for (const xp::core::EffectEstimate& e : row.replicates) {
        counts.estimates += 1;
        counts.null_estimates += is_null(e) ? 1 : 0;
      }
    }
  }
  const xp::core::ExperimentCell* first_ok = report.first_ok_cell();
  if (first_ok != nullptr && report.has_estimates("quantile/ladder")) {
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      for (const std::string& metric : first_ok->table.metrics) {
        counts.ladder_draws += ladder_draws(
            report, a, metric, spec.analysis.bootstrap_replicates);
      }
    }
  }
  return counts;
}

std::vector<std::string> check_report(const Workload& workload,
                                      const xp::lab::ExperimentReport& report) {
  std::vector<std::string> problems;
  const xp::lab::ExperimentSpec& spec = workload.spec;
  const xp::core::CompletionManifest manifest = report.manifest();
  if (manifest.cells != spec.allocations.size() * spec.replicates ||
      !manifest.complete()) {
    problems.push_back("incomplete manifest: " + std::to_string(manifest.ok) +
                       " of " + std::to_string(manifest.cells) + " cells ok");
  }
  const xp::core::ExperimentCell* first_ok = report.first_ok_cell();
  if (first_ok == nullptr) {
    problems.push_back("no OK cell");
    return problems;
  }
  if (report.estimates.size() != spec.estimators.size()) {
    problems.push_back("estimate tables: " +
                       std::to_string(report.estimates.size()) + " of " +
                       std::to_string(spec.estimators.size()));
    return problems;
  }
  for (std::size_t e = 0; e < spec.estimators.size(); ++e) {
    const xp::core::EstimateTable& table = report.estimates[e];
    for (const std::string& metric : first_ok->table.metrics) {
      if (table.metric_rows(metric).empty()) {
        problems.push_back("no rows for (" + spec.estimators[e] + ", " +
                           metric + ")");
      }
    }
  }
  if (workload.capping_check) {
    try {
      const xp::core::EffectEstimate& tte =
          report.estimates_for("paired_link/tte")
              .row("video bitrate/tte")
              .effect();
      if (!(tte.significant && tte.estimate < 0.0)) {
        problems.push_back(
            "capping direction lost: paired_link/tte video bitrate/tte = " +
            std::to_string(tte.relative()) +
            (tte.significant ? " (significant)" : " (not significant)"));
      }
    } catch (const std::exception& e) {
      problems.push_back(std::string("capping check: ") + e.what());
    }
  }
  return problems;
}

}  // namespace perfbench
