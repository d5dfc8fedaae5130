// A unidirectional link: droptail queue + serialization at `rate` +
// propagation delay. This is the congestion point where treatment and
// control traffic interfere — the physical mechanism behind every biased
// A/B test in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/queue.h"
#include "sim/simulator.h"

namespace xp::sim {

class Link {
 public:
  using DeliverFn = std::function<void(const Packet&)>;

  Link(Simulator& sim, Bps rate, Time propagation_delay,
       std::uint64_t queue_capacity_bytes, std::string name = "link");

  /// Submit a packet. It is either queued (and eventually delivered to the
  /// sink after serialization + propagation) or tail-dropped.
  void send(const Packet& packet);

  void set_sink(DeliverFn sink) { sink_ = std::move(sink); }

  Bps rate() const noexcept { return rate_; }
  Time propagation_delay() const noexcept { return propagation_delay_; }
  const std::string& name() const noexcept { return name_; }

  const DropTailQueue& queue() const noexcept { return queue_; }
  DropTailQueue& queue() noexcept { return queue_; }

  std::uint64_t delivered_packets() const noexcept { return delivered_; }
  std::uint64_t delivered_bytes() const noexcept { return delivered_bytes_; }
  /// Fraction of wall time the transmitter was busy since construction.
  double utilization() const noexcept;
  /// Current queueing delay if a packet arrived now (excludes the packet
  /// currently being serialized; a close lower bound).
  Time queueing_delay() const noexcept;

 private:
  void start_transmission();
  void on_serialized(Packet packet);

  Simulator& sim_;
  Bps rate_;
  Time propagation_delay_;
  LaneId propagation_lane_;  // delivery times rise with send order
  DropTailQueue queue_;
  std::string name_;
  DeliverFn sink_;
  bool transmitting_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  double busy_seconds_ = 0.0;
  Time created_at_ = 0.0;
};

}  // namespace xp::sim
