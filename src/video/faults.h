// Deterministic fault injection for the paired-link cluster.
//
// Real experimentation platforms run on degraded infrastructure: peering
// links lose capacity or go dark, demand surges past the forecast, and
// client telemetry arrives late, truncated, or not at all. The estimators
// in core/ must not silently mislead in that regime, so the cluster can
// replay *seed-pure* fault plans: every fault is a deterministic
// function of (plan, config seed) — no wall clocks, no extra draws from
// the arrival RNG stream — so a faulted world is exactly as reproducible
// as a clean one, and an empty plan leaves the simulation bit-for-bit
// identical to a cluster with no fault code at all.
//
// Three fault families, mirroring what passive trace analyzers must cope
// with in recorded data:
//
//  * LinkFault      — capacity degradation or outage windows on one link
//                     (capacity_factor 0 is a full outage).
//  * DemandFault    — flash-crowd windows multiplying the arrival rate.
//  * TelemetryFault — per-session record drop / corruption probabilities,
//                     decided by hashing the session id (never by drawing
//                     from the simulation stream).
#pragma once

#include <cstdint>
#include <vector>

namespace xp::video {

/// Capacity fault window: while t is in [start_seconds, end_seconds) the
/// link's capacity is multiplied by capacity_factor. Overlapping windows
/// compose multiplicatively. factor 0 = full outage.
struct LinkFault {
  int link = 0;  ///< which paired link (0 or 1)
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  double capacity_factor = 1.0;
};

/// Flash-crowd window: while t is in [start_seconds, end_seconds) the
/// demand model's arrival rate is multiplied by rate_multiplier.
/// Overlapping windows compose multiplicatively.
struct DemandFault {
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  double rate_multiplier = 1.0;
};

/// Telemetry loss applied to the emitted session records (after the run;
/// the tick loop never sees it). Each record's fate is a pure function of
/// (run seed, session id): dropped records vanish from the dataset,
/// corrupted records keep their identity and QoE fields but lose the
/// network metrics (throughput, RTTs, retransmits become NaN) — the
/// truncated-capture shape passive analyzers guard against.
struct TelemetryFault {
  double drop_probability = 0.0;
  double corrupt_probability = 0.0;
};

/// A bundle of fault events. Default-constructed plans are empty
/// and change nothing: the cluster's no-fault path stays bit-identical.
struct FaultPlan {
  std::vector<LinkFault> link_faults;
  std::vector<DemandFault> demand_faults;
  TelemetryFault telemetry;

  bool empty() const noexcept {
    return link_faults.empty() && demand_faults.empty() &&
           telemetry.drop_probability <= 0.0 &&
           telemetry.corrupt_probability <= 0.0;
  }

  /// Multiply every window by `scale` — SourceOptions::duration_scale
  /// shrinks the horizon, and the plan's windows must shrink with it or a
  /// smoke run never reaches its faults.
  void scale_time(double scale) noexcept;
};

/// Validate a fault plan. Throws std::invalid_argument naming the
/// offending field (windows must be ordered and non-negative, factors and
/// multipliers non-negative, probabilities in [0, 1], link in {0, 1}).
void validate(const FaultPlan& plan);

/// Product of the capacity factors of every window active on `link` at
/// time `t`. 1.0 when none are.
double capacity_factor(const FaultPlan& plan, int link, double t) noexcept;

/// Product of the rate multipliers of every demand window active at `t`.
double demand_multiplier(const FaultPlan& plan, double t) noexcept;

/// What telemetry loss does to one session's record.
enum class TelemetryFate : std::uint8_t { kKept, kDropped, kCorrupted };

/// Deterministic per-record fate: a seed-pure hash of (seed, session_id)
/// thresholded against the drop then corrupt probabilities. Consumes no
/// RNG stream, so enabling telemetry faults cannot perturb the simulated
/// world — only the dataset recorded from it.
TelemetryFate telemetry_fate(const TelemetryFault& fault, std::uint64_t seed,
                             std::uint64_t session_id) noexcept;

}  // namespace xp::video
