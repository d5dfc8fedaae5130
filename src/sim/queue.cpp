#include "sim/queue.h"

#include <algorithm>

namespace xp::sim {

bool DropTailQueue::enqueue(const Packet& packet) {
  if (bytes_ + packet.size_bytes > capacity_bytes_) {
    ++drops_;
    dropped_bytes_ += packet.size_bytes;
    if (on_drop_) on_drop_(packet);
    return false;
  }
  ring_.push_back() = packet;
  bytes_ += packet.size_bytes;
  ++enqueued_;
  max_bytes_seen_ = std::max(max_bytes_seen_, bytes_);
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (ring_.empty()) return std::nullopt;
  const Packet p = ring_.front();
  ring_.pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

}  // namespace xp::sim
