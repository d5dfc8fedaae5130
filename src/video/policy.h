// First-class treatment policies: what an experimental treatment does to a
// session at admission.
//
// The paper's one treatment — fractional bitrate capping — used to be a
// hardcoded ClusterConfig field. A TreatmentPolicy generalizes it to the
// two levers a streaming service actually has per session:
//
//   * a ladder transform (which encodes the session may stream): identity,
//     fractional capping at an arbitrary level, top-rung removal;
//   * an ABR selection strategy (how the client picks among them), in the
//     Puffer ABRAlgo shape: hybrid (the repo's original buffer-map with a
//     fixed startup rate), pure buffer-based BBA (Huang et al., linear in
//     rate, lowest-rung startup), and throughput/rate-based.
//
// Policies are resolved by name ONCE, at cluster admission setup — never
// in the tick loop. The SoA SessionPool stores a per-slot policy index
// into a small table of resolved AbrPolicy entries and dispatches with a
// switch on a one-byte kind: batch/table dispatch, zero virtual calls per
// tick, preserving the PR-4 zero-allocation steady state.
//
// Names: built-ins "control", "bba", "rate", plus the parameterized
// families "cap/<fraction>" (e.g. "cap/0.5") and "drop_top/<rungs>"
// (e.g. "drop_top/2"). register_policy() publishes custom fixed-name
// policies; unknown names throw listing every alternative.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "video/abr.h"
#include "video/bitrate.h"

namespace xp::video {

/// ABR strategy selector, one byte so the pool's dispatch table stays in
/// a register. kHybrid is the repo's original algorithm (bit-identical).
enum class AbrKind : std::uint8_t {
  kHybrid,       ///< buffer-map over ladder indices, fixed startup rate
  kBufferBased,  ///< BBA-proper: buffer-map over rates, lowest-rung startup
  kRate,         ///< highest rung under safety x smoothed throughput
};

/// Resolved per-policy ABR parameters — the SessionPool's dispatch-table
/// entry. Reservoir/cushion/startup knobs come from the cluster's
/// AbrConfig so one config tunes every strategy coherently.
struct AbrPolicy {
  AbrKind kind = AbrKind::kHybrid;
  AbrConfig config;
  /// kRate: fraction of the smoothed throughput estimate to request.
  double rate_safety = 0.8;
  /// kRate: throughput EWMA time constant (seconds).
  double rate_tau_seconds = 8.0;
};

/// Ladder transform applied at admission: device ladder in, treatment
/// ladder out. Pure and cheap — the cluster caches one output ladder per
/// (device class, arm) per run, so this never runs in the tick loop.
struct LadderPolicy {
  enum class Kind : std::uint8_t {
    kIdentity,     ///< device ceiling only (the control arm)
    kCapFraction,  ///< ceiling x fraction (the paper's capping program)
    kDropTop,      ///< remove the top k rungs (resolution-preserving trim)
  };
  Kind kind = Kind::kIdentity;
  double cap_fraction = 1.0;   ///< kCapFraction, in (0, 1]
  std::size_t drop_rungs = 0;  ///< kDropTop, >= 1

  /// The ladder a session on this arm may stream from: `base` truncated
  /// to the device ceiling, then transformed. kIdentity/kCapFraction
  /// reproduce the pre-policy cluster arithmetic exactly.
  BitrateLadder apply(const BitrateLadder& base, double device_ceiling) const;
};

/// A named treatment: ladder transform + ABR strategy. What "being in the
/// treatment (or control) arm" means for an admitted session.
struct TreatmentPolicy {
  std::string name;
  LadderPolicy ladder;
  AbrKind abr = AbrKind::kHybrid;
  double rate_safety = 0.8;
  double rate_tau_seconds = 8.0;

  /// Resolve the pool-facing dispatch entry against the cluster's shared
  /// ABR tuning knobs.
  AbrPolicy abr_policy(const AbrConfig& cluster_abr) const;
};

/// Look up a policy by name: the parameterized families "cap/<fraction>"
/// and "drop_top/<rungs>" are parsed first (register_policy rejects
/// family-prefixed names, so nothing can shadow them), then the
/// registered fixed names. Unknown names throw std::invalid_argument
/// listing every registered policy and family; malformed parameters
/// throw naming the bad value.
TreatmentPolicy make_policy(std::string_view name);

/// Publish a custom fixed-name policy under policy.name. Throws
/// std::invalid_argument on duplicate names.
void register_policy(TreatmentPolicy policy);

/// Sorted names of all registered fixed-name policies (built-ins
/// included; the parameterized families are not enumerable).
std::vector<std::string> policy_names();

}  // namespace xp::video
