#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace xp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilSlot;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.live_seq = 0;  // no entry carries seq 0, so stale handles never match
  s.next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t EventQueue::next_seq() noexcept {
  const std::uint32_t seq = next_seq_;
  next_seq_ = next_seq_ + 1 == 0 ? 1 : next_seq_ + 1;
  return seq;
}

void EventQueue::push_entry(const Entry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
  ++heap_live_;
}

EventId EventQueue::schedule(Time at, Callback&& callback) {
  const std::uint32_t seq = next_seq();
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  s.live_seq = seq;
  push_entry(Entry{at, seq, slot});
  ++live_;
  ++scheduled_;
  return pack(seq, slot);
}

LaneId EventQueue::add_lane() {
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

void EventQueue::schedule(LaneId id, Time at, Callback&& callback) {
  Lane& lane = lanes_[id];
  // One compare, kept in Release: a lane's FIFO order is its heap order
  // only while its times never decrease.
  if (at < lane.last_at) {
    throw std::logic_error("EventQueue: lane event scheduled before the "
                           "lane's previous event");
  }
  LaneEvent& event = lane.events.push_back();
  lane.last_at = at;
  event.at = at;
  event.seq = next_seq();
  event.callback = std::move(callback);
  if (lane.events.size() == 1) {
    push_entry(Entry{at, event.seq, kLaneTag | id});
  }
  ++live_;
  ++scheduled_;
}

void EventQueue::cancel(EventId id) noexcept {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto seq = static_cast<std::uint32_t>(id >> 32);
  if (seq == 0 || slot >= slots_.size() || slots_[slot].live_seq != seq) {
    return;
  }
  slots_[slot].callback.reset();
  release_slot(slot);
  --live_;
  --heap_live_;
  // The heap entry remains as a stale-seq tombstone; it is dropped for
  // free when it reaches the top, or swept wholesale by compact() if
  // tombstones ever outnumber the live heap entries. (Lane-queued events
  // are live but hold no heap entry, so live_ is the wrong yardstick.)
  if (heap_.size() >= 64 && heap_.size() - heap_live_ > heap_live_) {
    compact();
  }
}

void EventQueue::compact() noexcept {
  std::size_t w = 0;
  for (const Entry& e : heap_) {
    if (is_live(e)) heap_[w++] = e;
  }
  heap_.resize(w);
  if (w > 1) {
    for (std::size_t i = (w - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

void EventQueue::sift_up(std::size_t i) noexcept {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_top() noexcept {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead_top() noexcept {
  while (!heap_.empty() && !is_live(heap_[0])) pop_top();
}

Time EventQueue::next_time() noexcept {
  drop_dead_top();
  return heap_.empty() ? kNoTime : heap_[0].at;
}

bool EventQueue::pop_until(Time limit, Time& at_out, Callback& out) {
  drop_dead_top();
  if (heap_.empty() || heap_[0].at > limit) return false;
  const Entry top = heap_[0];
  at_out = top.at;
  --live_;
  if ((top.slot & kLaneTag) != 0) {
    Ring<LaneEvent>& events = lanes_[top.slot & ~kLaneTag].events;
    out = std::move(events.front().callback);
    events.pop_front();
    if (!events.empty()) {
      // The lane's next event takes the root: one sift instead of a pop
      // plus a push.
      const LaneEvent& next = events.front();
      heap_[0] = Entry{next.at, next.seq, top.slot};
      sift_down(0);
      return true;
    }
  } else {
    out = std::move(slots_[top.slot].callback);
    release_slot(top.slot);
  }
  --heap_live_;
  pop_top();
  return true;
}

}  // namespace xp::sim
