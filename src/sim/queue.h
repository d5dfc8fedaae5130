// Droptail (tail-drop FIFO) byte-bounded queue — the discipline on the
// paper's Tofino bottleneck (1 BDP buffer). Tracks occupancy and drop
// statistics; an optional per-flow drop callback lets connections observe
// local drops (used only by tests; real TCP infers loss from ACKs).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sim/packet.h"
#include "sim/ring.h"

namespace xp::sim {

class DropTailQueue {
 public:
  explicit DropTailQueue(std::uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Attempt to enqueue. Returns false (and counts a drop) when the packet
  /// does not fit in the remaining buffer.
  bool enqueue(const Packet& packet);

  /// Dequeue the head packet, if any.
  std::optional<Packet> dequeue();

  bool empty() const noexcept { return ring_.empty(); }
  std::size_t packet_count() const noexcept { return ring_.size(); }
  std::uint64_t byte_count() const noexcept { return bytes_; }
  std::uint64_t capacity_bytes() const noexcept { return capacity_bytes_; }

  std::uint64_t drops() const noexcept { return drops_; }
  std::uint64_t dropped_bytes() const noexcept { return dropped_bytes_; }
  std::uint64_t enqueued() const noexcept { return enqueued_; }
  std::uint64_t max_bytes_seen() const noexcept { return max_bytes_seen_; }

  /// Invoked with each dropped packet (observability hook).
  void set_drop_callback(std::function<void(const Packet&)> cb) {
    on_drop_ = std::move(cb);
  }

 private:
  std::uint64_t capacity_bytes_;
  Ring<Packet> ring_{64};
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t max_bytes_seen_ = 0;
  std::function<void(const Packet&)> on_drop_;
};

}  // namespace xp::sim
