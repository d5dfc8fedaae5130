// The paired-link world of Section 4: two statistically similar clusters,
// each with its own congested peering link, serving sessions from the same
// demand pool. Each link runs its own (independent) Bernoulli treatment
// allocation — 95% on link 1 and 5% on link 2 in the paper's main
// experiment — which is what lets the analysis estimate TTE and spillover
// while also computing two naive A/B estimates.
//
// run_paired_links() is the data-generating process; it returns one
// SessionRecord per completed session. The experiment-design layer (core/)
// consumes these rows.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include <string>

#include "video/abr.h"
#include "video/demand.h"
#include "video/faults.h"
#include "video/fluid_link.h"
#include "video/policy.h"
#include "video/session_pool.h"
#include "video/session_record.h"

namespace xp::video {

struct DeviceMix {
  /// Fractions must sum to 1; ceilings in b/s.
  double mobile_fraction = 0.40;
  double mobile_ceiling = 1750e3;
  double hd_fraction = 0.40;
  double hd_ceiling = 5800e3;
  double uhd_fraction = 0.20;
  double uhd_ceiling = 16000e3;
};

struct ClusterConfig {
  FluidLinkConfig link;
  DemandConfig demand;
  AbrConfig abr;
  SessionParams session;
  DeviceMix devices;

  /// Named treatment policies (video/policy.h): what landing in the
  /// control or treatment arm does to an admitted session — ladder
  /// transform + ABR strategy. Resolved once per run through the policy
  /// registry. The defaults are the paper's canonical arms: "control"
  /// (device ceiling, hybrid ABR) against "cap/0.75", which multiplies
  /// each session's bitrate ceiling by 0.75 (resolution preserved, top
  /// encodes removed) for roughly the ~25% traffic reduction the capping
  /// program measured, after ladder rounding. Any registered or
  /// parameterized policy name ("cap/0.5", "drop_top/2", "bba", "rate")
  /// turns the same cluster into a different experiment family.
  std::string control_policy = "control";
  std::string treatment_policy = "cap/0.75";

  /// Per-link probability a session is assigned to treatment.
  double treat_probability[2] = {0.95, 0.05};

  /// Probability a session routes to link 0 (paper: 50.8% / 49.2%).
  double link0_probability = 0.508;

  /// Per-link rate of spurious (content-driven) playback stalls per
  /// playing-hour — the pre-existing rebuffer imbalance of Section 4.1.
  double spurious_rebuffer_per_hour[2] = {0.060, 0.050};

  /// Horizon and integration step.
  double days = 5.0;
  double tick_seconds = 1.0;

  /// Cooperative work budget in cluster ticks (util/budget.h):
  /// run_paired_links throws util::BudgetExceeded instead of starting
  /// tick max_ticks + 1. 0 (the default) is unlimited.
  std::uint64_t max_ticks = 0;

  /// Deterministic fault plan (video/faults.h). The default plan is empty
  /// and the run is bit-identical to a cluster with no fault code; a
  /// non-empty plan is still a pure function of (config, seed).
  FaultPlan faults;

  std::uint64_t seed = 42;
};

struct ClusterRunStats {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  double peak_concurrency[2] = {0.0, 0.0};
  double peak_utilization[2] = {0.0, 0.0};
  double max_queueing_delay[2] = {0.0, 0.0};
  /// Telemetry-fault tallies: records removed from / NaN-ed in the output.
  std::uint64_t records_dropped = 0;
  std::uint64_t records_corrupted = 0;
};

struct ClusterResult {
  std::vector<SessionRecord> sessions;
  ClusterRunStats stats;
  /// Hourly mean of link RTT and utilization (diagnostics / Fig 6 inputs).
  std::vector<double> hourly_utilization[2];
  std::vector<double> hourly_rtt[2];
};

/// Validate a cluster configuration before running it. Throws
/// std::invalid_argument naming the offending field (device fractions
/// must sum to 1, probabilities must lie in [0, 1], horizon/tick/rates
/// positive) instead of silently producing a skewed world. Policy names
/// (and their parameters, such as a cap fraction) are resolved, and thus
/// validated, by run_paired_links itself.
void validate(const ClusterConfig& config);

/// The treated fraction the design intends (the SRM guardrail's null):
/// sessions route to link 0 w.p. link0_probability and are treated w.p.
/// treat_probability[link], so the marginal mixes the two per-link
/// Bernoullis.
double intended_treated_fraction(const ClusterConfig& config) noexcept;

/// Run the paired-link world. Deterministic in (config): the result is a
/// pure function of (config, seed) — bit-for-bit reproducible at any
/// thread count, since a run is single-threaded and parallelism happens
/// across independent runs. The contract does NOT pin the RNG draw order
/// *inside* one run across refactors (e.g. stall thinning moved to
/// per-link skip-sampling streams), so realized values may change when
/// the hot path changes; goldens are refreshed when that happens.
ClusterResult run_paired_links(const ClusterConfig& config);

/// Streaming consumer of retired-session telemetry. Called once per
/// surviving record (telemetry-fault drops are filtered, corruptions
/// applied, before the sink sees the row).
using SessionSink = std::function<void(const SessionRecord&)>;

/// Streaming form, and the one simulation core: every record is handed
/// to `sink` the moment it retires (or flushes at the horizon) and
/// ClusterResult::sessions stays empty — peak memory is O(concurrent
/// sessions), not O(total sessions). The vector overload above is this
/// call with a collecting sink, so records arrive in the same order as
/// its output and stats and hourly diagnostics are identical. This is
/// the fleet-scale path (core/cell_accumulator.h folds the stream into
/// hourly cells).
ClusterResult run_paired_links(const ClusterConfig& config,
                               const SessionSink& sink);

}  // namespace xp::video
