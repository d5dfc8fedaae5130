#include "sim/link.h"

#include <utility>

namespace xp::sim {

Link::Link(Simulator& sim, Bps rate, Time propagation_delay,
           std::uint64_t queue_capacity_bytes, std::string name)
    : sim_(sim),
      rate_(rate),
      propagation_delay_(propagation_delay),
      propagation_lane_(sim.add_lane()),
      queue_(queue_capacity_bytes),
      name_(std::move(name)),
      created_at_(sim.now()) {}

void Link::send(const Packet& packet) {
  if (!queue_.enqueue(packet)) return;  // tail drop
  if (!transmitting_) start_transmission();
}

void Link::start_transmission() {
  auto next = queue_.dequeue();
  if (!next) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  const Time tx = serialization_delay(next->size_bytes, rate_);
  busy_seconds_ += tx;
  sim_.schedule_in(tx, [this, packet = *next]() { on_serialized(packet); });
}

void Link::on_serialized(Packet packet) {
  // Propagation: delivery lands prop_delay after the last bit leaves.
  if (sink_) {
    sim_.schedule_in(propagation_lane_, propagation_delay_,
                     [this, packet]() { sink_(packet); });
  }
  ++delivered_;
  delivered_bytes_ += packet.size_bytes;
  start_transmission();
}

double Link::utilization() const noexcept {
  const double elapsed = sim_.now() - created_at_;
  return elapsed <= 0.0 ? 0.0 : busy_seconds_ / elapsed;
}

Time Link::queueing_delay() const noexcept {
  return serialization_delay(queue_.byte_count(), rate_);
}

}  // namespace xp::sim
