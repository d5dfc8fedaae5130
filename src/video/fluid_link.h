// Fluid model of a congested peering link.
//
// Packet-level simulation of 100 Gb/s links over multi-day horizons is
// infeasible and unnecessary: the paired-link phenomena in Section 4 are
// driven by (a) aggregate demand crossing capacity during peak hours,
// (b) a standing queue shared by every session on the link, and (c) loss
// rising with overload. This model captures exactly those mechanics:
//
//  * Bandwidth is shared max-min fairly among session demands each tick.
//  * A standing queue integrates (arrival - capacity) overload and drains
//    when demand recedes; queueing delay = queue_bytes / capacity, added
//    to every session's RTT — the congestion interference pathway.
//  * Loss (-> retransmit fraction) grows with queue occupancy near the
//    buffer limit, mimicking droptail tail-drop behaviour.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xp::video {

struct FluidLinkConfig {
  /// Scaled stand-in for the paper's 100 Gb/s peering link. Calibrated
  /// with DemandConfig so uncapped peak desired-consumption is ~1.3x
  /// capacity and capped peak is ~0.95x (congestion starts later, ends
  /// earlier on the mostly-capped link — Fig 6).
  double capacity_bps = 2e9;
  /// Base (uncongested) round-trip time.
  double base_rtt = 0.030;
  /// Buffer depth in seconds of drain time (queueing delay at full).
  double buffer_seconds = 0.25;
  /// Loss onset: loss begins when queue occupancy passes this fraction.
  double loss_knee = 0.5;
  /// Loss at full occupancy (fraction of bytes).
  double max_loss = 0.05;
  /// Baseline (uncongested) retransmit fraction on the path.
  double base_loss = 0.001;
  /// Standing-queue formation: the queue ramps from empty to full as the
  /// smoothed desired-load ratio rho = desired/capacity crosses
  /// [rho_knee, rho_full]. Desired load is the consumption sessions want
  /// absent congestion (capped ladder top x overhead, access-limited) —
  /// an exogenous congestion signal that does not dissolve when ABR
  /// adapts, just as a droptail buffer stays occupied while elastic TCP
  /// flows remain backlogged. Capping lowers desired load directly.
  double rho_knee = 0.95;
  double rho_full = 1.15;
  /// Time constants: load smoothing and queue relaxation (s).
  double rho_tau = 120.0;
  double queue_tau = 45.0;
};

class FluidLink {
 public:
  explicit FluidLink(const FluidLinkConfig& config) : config_(config) {}

  /// Max-min fair allocation of capacity among instantaneous `demands`
  /// (bits/s; chunked downloads come and go each tick), and advance the
  /// standing-queue dynamics by `dt` seconds given `desired_load_bps`,
  /// the aggregate congestion-free consumption the sessions want.
  ///
  /// The caller (the pool's gather pass) already swept the demand array,
  /// so it hands over the positive-demand sum and count and the
  /// water-fill skips its own first pass. Requires non-negative demands
  /// (`demand_sum_bps` is then their plain sum). Returns the grant span:
  /// `demands` itself when the link is undersubscribed (grants ==
  /// demands, no copy), `alloc` after a water-fill otherwise — consume
  /// the return value, not `alloc`. `alloc`'s capacity and the link's
  /// water-filling scratch are reused across ticks, so the steady-state
  /// tick allocates nothing.
  std::span<const double> allocate_and_advance(
      std::span<const double> demands, double desired_load_bps,
      double demand_sum_bps, std::size_t demand_positive, double dt,
      std::vector<double>& alloc);

  /// Current round-trip time including the standing queue.
  double rtt() const noexcept;
  /// Current queueing delay component (seconds).
  double queueing_delay() const noexcept;
  /// Current loss fraction for bytes traversing the link.
  double loss_fraction() const noexcept;
  /// Queue occupancy in [0, 1].
  double occupancy() const noexcept;
  /// Utilization of the last tick (delivered / capacity).
  double last_utilization() const noexcept { return last_utilization_; }
  /// Smoothed sustained-load ratio (load / capacity).
  double rho() const noexcept { return rho_; }

  /// Fault-injection hook: capacity is scaled by this factor until it is
  /// set again (1.0 = nominal, 0.0 = outage). Allocation and the
  /// congestion signal see the effective capacity; the buffer depth and
  /// queue drain rate stay tied to the nominal capacity (the hardware
  /// does not shrink with the fault).
  void set_capacity_factor(double factor) noexcept {
    capacity_factor_ = factor;
  }
  double capacity_factor() const noexcept { return capacity_factor_; }
  /// Effective capacity this tick (nominal x fault factor).
  double capacity_bps() const noexcept {
    return config_.capacity_bps * capacity_factor_;
  }

  const FluidLinkConfig& config() const noexcept { return config_; }

  /// Reset queue state (new simulation day boundary is NOT reset — the
  /// queue drains naturally overnight; this is for reuse across runs).
  void reset() noexcept {
    queue_bytes_ = 0.0;
    last_utilization_ = 0.0;
    rho_ = 0.0;
  }

 private:
  /// Shared tail of both allocate_and_advance branches: utilization +
  /// standing-queue relaxation.
  void advance_queue(double delivered, double cap, double desired_load_bps,
                     double dt) noexcept;

  FluidLinkConfig config_;
  double capacity_factor_ = 1.0;
  double queue_bytes_ = 0.0;
  double last_utilization_ = 0.0;
  double rho_ = 0.0;
  /// Water-level refinement scratch (above-level survivors), reused across
  /// ticks so oversubscribed peak-hour ticks stay allocation-free.
  std::vector<double> refine_scratch_;
};

/// Max-min fair share computation (water-filling): writes grants into
/// `alloc` (caller sizes it to demands.size()) and returns the total
/// granted rate (fixed 4-lane summation order). Zero and negative
/// demands are granted 0. The caller supplies the positive-demand sum and
/// count (typically fused into its own sweep that produced `demands`), so
/// the allocator needs no first pass of its own. `positive_sum` must
/// equal the sum of max(d, 0) over `demands` up to summation order;
/// `positive_count` must be exact. `refine_scratch` is resized to
/// demands.size() when the link is oversubscribed and holds the
/// above-level survivors between refinement rounds — pass a vector
/// reused across calls to keep the hot path allocation-free.
double max_min_fair_allocation_presummed(std::span<const double> demands,
                                         double positive_sum,
                                         std::size_t positive_count,
                                         double capacity,
                                         std::span<double> alloc,
                                         std::vector<double>& refine_scratch);

}  // namespace xp::video
