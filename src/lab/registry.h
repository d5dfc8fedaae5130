// String-keyed scenario registry: every data-generating world the library
// knows how to run, published under one name and one interface.
//
// Built-in entries wrap the paper's scenarios:
//
//   dumbbell/two_connections   Section 3 lab, 1 -> 2 parallel connections
//   dumbbell/pacing            Section 3 lab, unpaced -> paced Reno
//   dumbbell/bbr_vs_cubic      Section 3 lab, Cubic -> BBR
//   paired_links/experiment    Section 4 capping week (allocation p on the
//                              mostly-treated link, 1-p on the other;
//                              p = 0.95 reproduces the paper's 95%/5%)
//   paired_links/baseline      Section 4.1 A/A week (no treatment anywhere;
//                              ignores the allocation)
//
// plus the policy-backed experiment families (video/policy.h — the same
// paired-link week with the arm treatment policies swapped):
//
//   paired_links/cap_50        fractional capping at 50% of the ceiling
//   paired_links/drop_top      top-two-rung removal instead of capping
//   paired_links/abr_swap      hybrid control vs rate-based-ABR treatment
//   paired_links/bba_vs_rate   buffer-based BBA vs rate-based ABR
//
// and the trace-replay backend (src/trace/ — recorded session logs
// through the same estimator stack):
//
//   trace/replay               replay a session-log file (.xpt/.csv) named
//                              by SourceOptions::trace_path (falling back
//                              to $XP_TRACE_FILE), bootstrap replicates
//   trace/self_calibration     export the canonical paired-links week to
//                              the schema and replay it — the
//                              simulation-vs-replay calibration loop
//
// and the fleet backend (lab/fleet_scenarios.h — N paired-link shards
// streamed into merged hourly-cell sketches, never materializing
// per-session records):
//
//   fleet/experiment           32 uniform phase-rotated regions at 3x the
//                              canonical scale: >= 1M sessions per
//                              simulated day
//   fleet/heterogeneous        8 regions with varied capacity, demand,
//                              timezone, and device mix
//
// The canonical configurations live in this translation unit only —
// benches, examples, and tests all obtain them from here. A new treatment
// lands as one TreatmentPolicy + one register_scenario call.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lab/datasource.h"
#include "lab/scenarios.h"
#include "util/budget.h"
#include "video/cluster.h"

namespace xp::lab {

/// Knobs every factory honors. duration_scale shrinks the simulated
/// horizon proportionally (dumbbell warmup+duration, cluster days);
/// 1.0 is the paper-scale canonical run, tests use ~0.05 smoke runs.
/// Non-generative sources must honor it too: trace replay truncates the
/// replayed horizon to duration_scale x the recorded one (never silently
/// ignores it — smoke tests rely on this; see lab/datasource.h).
struct SourceOptions {
  double duration_scale = 1.0;
  /// Session-log file for the trace/replay scenario (see src/trace/);
  /// empty falls back to the XP_TRACE_FILE environment variable, and the
  /// factory throws (naming both knobs) when neither is set. Generative
  /// scenarios ignore it.
  std::string trace_path;
  /// Per-run work budget (util/budget.h), counted in the backend's own
  /// simulated-work currency: simulator events for dumbbell/*, cluster
  /// ticks for paired_links/*, replayed rows for trace/*. A run that
  /// crosses the cap throws util::BudgetExceeded from its main loop —
  /// never a hang, never wall-clock-dependent — and the experiment
  /// pipeline records the cell as CellState::kBudgetExceeded. The
  /// default (0) is unlimited and leaves every run bit-identical to a
  /// budget-free build.
  util::RunBudget budget;
};

using SourceFactory =
    std::function<std::unique_ptr<DataSource>(const SourceOptions&)>;

/// Publish a scenario. Throws std::invalid_argument on duplicate names.
/// The key is the source's only name: a DataSource does not carry one.
void register_scenario(std::string name, SourceFactory factory);

/// Instantiate a registered scenario. Unknown names throw
/// std::invalid_argument listing every registered scenario.
std::unique_ptr<DataSource> make_scenario(std::string_view name,
                                          const SourceOptions& options = {});

/// Sorted names of all registered scenarios (built-ins included).
std::vector<std::string> scenario_names();

/// Canonical configurations (the single source of truth).
LabConfig canonical_lab_config();
video::ClusterConfig canonical_experiment_config();  ///< 5-day 95%/5% week

}  // namespace xp::lab
