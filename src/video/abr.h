// Adaptive bitrate selection strategies over a flattened ladder (raw
// ascending rung array + top index). Each returns a rung *index*, so the
// session pool can reuse the pick for its per-rung quality cache. Three
// are provided, one per AbrKind in video/policy.h:
//
//  * abr_select_index_rungs — the repo's original hybrid: the client maps
//    its playback buffer level to a ladder index (a reservoir of low-rate
//    safety at the bottom, a linear cushion in the middle, max rate once
//    comfortable), with a fixed throughput-informed startup rate.
//  * bba_select_index_rungs — BBA-proper (Huang et al., the paper's
//    reference [42]): the same reservoir/cushion map but linear in
//    *rate*, then the highest rung under the mapped rate; startup at the
//    lowest rung.
//  * rate_select_index_rungs — throughput-based: highest rung under a
//    safety fraction of the smoothed download rate, buffer ignored.
//
// A bitrate cap (the Section 4 treatment) simply truncates the ladder,
// so every strategy composes with every ladder treatment.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "video/bitrate.h"

namespace xp::video {

struct AbrConfig {
  /// Below the reservoir the client streams the lowest rung.
  double reservoir_seconds = 10.0;
  /// Above reservoir + cushion the client streams the highest rung.
  double cushion_seconds = 50.0;
  /// Throughput-based startup: first chunk uses min(this, ladder top).
  double startup_bitrate = 1050e3;
};

/// Rung index for the current playback buffer level, over a flattened
/// ladder (ascending rung array + top index as a double). This is THE
/// buffer-map arithmetic: the session pool's tick loop calls it with
/// cached raw rung pointers — change the policy in exactly one place.
inline std::size_t abr_select_index_rungs(double top_index,
                                          const AbrConfig& config,
                                          double buffer_seconds) noexcept {
  if (buffer_seconds <= config.reservoir_seconds) return 0;
  const double t = std::clamp(
      (buffer_seconds - config.reservoir_seconds) / config.cushion_seconds,
      0.0, 1.0);
  // Linear interpolation across ladder indices.
  return static_cast<std::size_t>(std::floor(t * top_index));
}

/// Exact rung thresholds of the hybrid map above: entry k (k = 0 ..
/// top + 1) is the smallest double b with abr_select_index_rungs(
/// top_index, config, b) >= k — -inf for k = 0, +inf where no buffer
/// level reaches k (always for k = top + 1). The map is monotone
/// non-decreasing in the buffer (every IEEE step in it is), so it returns
/// k exactly when thresholds[k] <= buffer < thresholds[k + 1]: the session
/// pool caches that interval per slot and re-runs the map only when the
/// buffer leaves it. Found once per (policy, ladder size) by bisection
/// over the ordered doubles, with the map itself as the oracle.
std::vector<double> abr_rung_thresholds(double top_index,
                                        const AbrConfig& config);

/// Index of the highest rung <= `value`, floored at 0. The ladder is a
/// dozen rungs, so a forward scan beats a binary search and its branch
/// misses in the tick loop. Index form so callers with per-rung caches
/// (the pool's quality scores) can reuse the pick.
inline std::size_t rung_index_at_most(const double* rungs, double top_index,
                                      double value) noexcept {
  const auto top = static_cast<std::size_t>(top_index);
  std::size_t pick = 0;
  for (std::size_t r = 1; r <= top && rungs[r] <= value; ++r) pick = r;
  return pick;
}

/// BBA-proper buffer map: reservoir -> lowest, then linear in *rate* up
/// the cushion, then highest. Differs from the hybrid map above (linear
/// in ladder index) exactly as Huang et al.'s f(B) differs from an index
/// interpolation: on a roughly geometric ladder the rate map climbs into
/// the top rungs much earlier in the cushion.
inline std::size_t bba_select_index_rungs(const double* rungs,
                                          double top_index,
                                          const AbrConfig& config,
                                          double buffer_seconds) noexcept {
  if (buffer_seconds <= config.reservoir_seconds) return 0;
  const double t = std::clamp(
      (buffer_seconds - config.reservoir_seconds) / config.cushion_seconds,
      0.0, 1.0);
  const double top = rungs[static_cast<std::size_t>(top_index)];
  const double rate = rungs[0] + t * (top - rungs[0]);
  return rung_index_at_most(rungs, top_index, rate);
}

/// Throughput-based selection: highest rung sustainable at `target_bps`
/// (the caller applies its safety factor to a smoothed rate estimate).
inline std::size_t rate_select_index_rungs(const double* rungs,
                                           double top_index,
                                           double target_bps) noexcept {
  return rung_index_at_most(rungs, top_index, target_bps);
}

/// Bitrate for the startup chunk (before playback begins).
inline double abr_startup(const BitrateLadder& ladder,
                          const AbrConfig& config) noexcept {
  return std::min(config.startup_bitrate, ladder.highest());
}

}  // namespace xp::video
