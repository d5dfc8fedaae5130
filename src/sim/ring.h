// Power-of-two ring buffer FIFO for the simulator's hot queues (the
// droptail buffer, the event queue's lanes). Steady-state push/pop never
// allocates — std::deque cycles block allocations under sustained load —
// and the ring only grows, by doubling, up to its high-water mark.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace xp::sim {

template <typename T>
class Ring {
 public:
  /// `capacity` must be a power of two.
  explicit Ring(std::size_t capacity) : slots_(capacity) {}

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  T& front() noexcept { return slots_[head_]; }

  /// Append a slot at the back and return it for the caller to assign
  /// into; it holds a stale or default value until then.
  T& push_back() {
    if (count_ == slots_.size()) grow();
    T& slot = slots_[(head_ + count_) & (slots_.size() - 1)];
    ++count_;
    return slot;
  }

  void pop_front() noexcept {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;   // index of the oldest element
  std::size_t count_ = 0;  // elements currently queued
};

}  // namespace xp::sim
