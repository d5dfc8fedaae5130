#include "video/fluid_link.h"

#include <algorithm>
#include <cmath>

namespace xp::video {

namespace {

// The water-fill's per-tick passes, as free functions with restrict
// parameters so the vectorizer need not version for aliasing. FP sums use
// four independent accumulator lanes: a single-lane chain is a serial
// dependency the vectorizer may not reassociate without fast-math, while
// the fixed 4-lane order is deterministic and SIMD-friendly.

/// One refinement round: total demand at or under `level` (4-lane order)
/// and the count strictly above it.
[[gnu::noinline]] double satisfied_under(const double* __restrict d,
                                         std::size_t n, double level,
                                         std::size_t& above) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t i = 0;
  // vec-check: waterfill-refine
  for (; i + 4 <= n; i += 4) {
    const double e0 = std::max(d[i], 0.0);
    const double e1 = std::max(d[i + 1], 0.0);
    const double e2 = std::max(d[i + 2], 0.0);
    const double e3 = std::max(d[i + 3], 0.0);
    s0 += e0 <= level ? e0 : 0.0;
    s1 += e1 <= level ? e1 : 0.0;
    s2 += e2 <= level ? e2 : 0.0;
    s3 += e3 <= level ? e3 : 0.0;
    a0 += d[i] > level ? 1.0 : 0.0;
    a1 += d[i + 1] > level ? 1.0 : 0.0;
    a2 += d[i + 2] > level ? 1.0 : 0.0;
    a3 += d[i + 3] > level ? 1.0 : 0.0;
  }
  for (; i < n; ++i) {
    const double e = std::max(d[i], 0.0);
    s0 += e <= level ? e : 0.0;
    a0 += d[i] > level ? 1.0 : 0.0;
  }
  above = static_cast<std::size_t>((a0 + a1) + (a2 + a3));
  return (s0 + s1) + (s2 + s3);
}

/// Clamp every demand to the final water level and return the granted
/// total (4-lane order).
[[gnu::noinline]] double grant_at_level(const double* __restrict d,
                                        double* __restrict out, std::size_t n,
                                        double level) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  // vec-check: waterfill-grant
  for (; i + 4 <= n; i += 4) {
    const double g0 = std::min(std::max(d[i], 0.0), level);
    const double g1 = std::min(std::max(d[i + 1], 0.0), level);
    const double g2 = std::min(std::max(d[i + 2], 0.0), level);
    const double g3 = std::min(std::max(d[i + 3], 0.0), level);
    out[i] = g0;
    out[i + 1] = g1;
    out[i + 2] = g2;
    out[i + 3] = g3;
    s0 += g0;
    s1 += g1;
    s2 += g2;
    s3 += g3;
  }
  for (; i < n; ++i) {
    const double g = std::min(std::max(d[i], 0.0), level);
    out[i] = g;
    s0 += g;
  }
  return (s0 + s1) + (s2 + s3);
}

/// Branch-free stream compaction: copy every demand strictly above `level`
/// into `out` (preserving order) and return how many there are. Writes
/// unconditionally and bumps the cursor conditionally — no mispredicted
/// store branch. Not vectorizable (data-dependent store index), but it
/// runs once per water-fill, not once per refinement round.
[[gnu::noinline]] std::size_t compact_above(const double* __restrict d,
                                            std::size_t n, double level,
                                            double* __restrict out) noexcept {
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double e = d[i];
    out[m] = e;
    m += e > level ? 1 : 0;
  }
  return m;
}

}  // namespace

double max_min_fair_allocation_presummed(std::span<const double> demands,
                                         double positive_sum,
                                         std::size_t positive_count,
                                         double capacity,
                                         std::span<double> alloc,
                                         std::vector<double>& refine_scratch) {
  const std::size_t n = demands.size();
  if (n == 0) return 0.0;
  const double* d = demands.data();
  if (capacity <= 0.0) {
    std::fill(alloc.begin(), alloc.end(), 0.0);
    return 0.0;
  }

  // Water-filling over the positive demands (zeros and negatives are
  // granted 0 and consume nothing). Every pass below is a dense
  // branch-free sweep of the whole demand array — no index compaction —
  // because the gather/scatter bookkeeping of the scratch-list variant
  // cost more than the redundant lanes it saved at cluster pool sizes.
  const std::size_t positive = positive_count;

  // Undersubscribed: everyone gets exactly their demand, no water level.
  if (positive_sum <= capacity) {
    double* out = alloc.data();
    // vec-check: waterfill-copy
    for (std::size_t i = 0; i < n; ++i) out[i] = std::max(d[i], 0.0);
    return positive_sum;
  }

  // Oversubscribed: find the water level L with alloc_i = min(d_i, L) and
  // sum(alloc) = capacity by iterative refinement instead of an
  // O(n log n) sort — guess L assuming everyone still unsatisfied splits
  // what the satisfied set leaves over, re-guess. L only rises, so each
  // round either retires demands or terminates; realistic demand mixes
  // converge in a handful of passes (the classic sorted water-fill
  // computes the same fixed point, one element at a time).
  //
  // The first round sweeps the full demand array; the demands it retires
  // (<= the first level) stay retired forever because L only rises, so
  // the survivors are compacted once into `refine_scratch` and every
  // later round sweeps only that (much smaller) set, carrying the retired
  // sum as a fixed base term.
  double level = capacity / static_cast<double>(positive);
  std::size_t above = 0;
  const double base = satisfied_under(d, n, level, above);
  if (above != positive && above != 0) {
    refine_scratch.resize(n);
    double* const sd = refine_scratch.data();
    const std::size_t m = compact_above(d, n, level, sd);
    std::size_t left = above;
    level = (capacity - base) / static_cast<double>(above);
    for (;;) {
      const double satisfied = satisfied_under(sd, m, level, above);
      if (above == left || above == 0) break;
      left = above;
      level = (capacity - (base + satisfied)) / static_cast<double>(above);
    }
  }
  return grant_at_level(d, alloc.data(), n, level);
}

std::span<const double> FluidLink::allocate_and_advance(
    std::span<const double> demands, double desired_load_bps,
    double demand_sum_bps, std::size_t demand_positive, double dt,
    std::vector<double>& alloc) {
  // Effective capacity = nominal x fault factor; at the default factor of
  // exactly 1.0 the multiply is IEEE-identical to the nominal path, so
  // fault-free worlds stay bit-for-bit unchanged.
  const double cap = config_.capacity_bps * capacity_factor_;
  // Undersubscribed (the off-peak majority of ticks): with non-negative
  // demands the grant vector IS the demand vector, so hand it straight
  // back instead of copying it through `alloc`.
  if (cap > 0.0 && demand_sum_bps <= cap) {
    advance_queue(demand_sum_bps, cap, desired_load_bps, dt);
    return demands;
  }
  alloc.resize(demands.size());
  const double delivered = max_min_fair_allocation_presummed(
      demands, demand_sum_bps, demand_positive, cap, alloc, refine_scratch_);
  advance_queue(delivered, cap, desired_load_bps, dt);
  return alloc;
}

void FluidLink::advance_queue(double delivered, double cap,
                              double desired_load_bps, double dt) noexcept {
  last_utilization_ = cap > 0.0 ? delivered / cap : 0.0;

  // Smooth the desired-load ratio, then relax the standing queue toward
  // the level TCP would hold at that load: empty below rho_knee, full
  // above rho_full, ramping in between. A full outage (cap == 0) pins the
  // instantaneous ratio past rho_full — the queue saturates instead of
  // dividing by zero.
  const double instant_rho =
      cap > 0.0 ? desired_load_bps / cap : config_.rho_full + 1.0;
  const double a_rho = std::min(1.0, dt / config_.rho_tau);
  rho_ += a_rho * (instant_rho - rho_);

  const double buffer_bytes =
      config_.buffer_seconds * config_.capacity_bps / 8.0;
  const double ramp = std::clamp(
      (rho_ - config_.rho_knee) / (config_.rho_full - config_.rho_knee),
      0.0, 1.0);
  const double target = buffer_bytes * ramp;
  const double a_q = std::min(1.0, dt / config_.queue_tau);
  queue_bytes_ += a_q * (target - queue_bytes_);
  queue_bytes_ = std::clamp(queue_bytes_, 0.0, buffer_bytes);
}

double FluidLink::queueing_delay() const noexcept {
  return queue_bytes_ * 8.0 / config_.capacity_bps;
}

double FluidLink::rtt() const noexcept {
  return config_.base_rtt + queueing_delay();
}

double FluidLink::occupancy() const noexcept {
  const double buffer_bytes =
      config_.buffer_seconds * config_.capacity_bps / 8.0;
  return buffer_bytes <= 0.0 ? 0.0 : queue_bytes_ / buffer_bytes;
}

double FluidLink::loss_fraction() const noexcept {
  const double x = occupancy();
  if (x <= config_.loss_knee) return config_.base_loss;
  const double t = (x - config_.loss_knee) / (1.0 - config_.loss_knee);
  return config_.base_loss + (config_.max_loss - config_.base_loss) * t * t;
}

}  // namespace xp::video
