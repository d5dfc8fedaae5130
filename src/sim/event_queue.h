// Cache-friendly event queue for the discrete-event simulator.
//
// Design (the engine's performance contract):
//  - The heap is a 4-ary implicit heap of 16-byte POD entries
//    {time, seq, slot}; a sift touches at most two cache lines per level
//    and never moves callbacks. Events at equal timestamps execute in
//    scheduling order (FIFO by sequence number, wrap-aware), keeping runs
//    bit-for-bit deterministic — a requirement for the experiment
//    framework's reproducibility guarantees.
//  - Callbacks live in a slot table indexed by the heap entries. Slots are
//    recycled through a free list, so the steady-state schedule/fire/cancel
//    cycle performs zero heap allocations once the high-water mark is
//    reached (SmallCallback keeps the callables themselves inline).
//  - Handles are generation-tagged: an EventId packs {seq, slot}, and a
//    slot remembers the seq of its currently-armed event. cancel()
//    compares the handle's seq against the slot's, making cancellation
//    O(1) without a hash set and making the old "cancel an already-fired
//    id leaks a tombstone forever" failure mode structurally impossible —
//    a stale handle simply never matches. Cancelled entries left in the
//    heap carry a stale seq and are discarded for free at the top.
//    (The 32-bit tag would ABA only if a handle were retained across
//    exactly 2^32 intervening schedules — never in practice.)
//  - FIFO lanes carry constant-delay events (packets on a propagation
//    pipe, ACKs on a reverse path), whose times already arrive in order.
//    A lane is a ring buffer of {time, seq, callback} with non-decreasing
//    times; only its head sits in the heap, as an ordinary entry whose
//    slot carries a lane tag, and firing it promotes the next lane event
//    with one sift_down. Lane events draw seq from the same counter as
//    schedule(), so the heap still pops in exact (time, seq) order: the
//    event order is the one every event would have had on the heap. Lane
//    events have no handle and cannot be cancelled; pushing a time earlier
//    than the lane's previous one throws std::logic_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/ring.h"
#include "sim/types.h"

namespace xp::sim {

class EventQueue {
 public:
  using Callback = SmallCallback;

  /// Schedule `callback` at absolute time `at`. Returns a cancellation
  /// handle; handles are never zero (zero is a safe "no event" sentinel).
  EventId schedule(Time at, Callback&& callback);

  /// Open a new, empty FIFO lane. Lanes live as long as the queue.
  LaneId add_lane();

  /// Schedule `callback` at absolute time `at` on `lane`. `at` must not be
  /// earlier than the lane's previous event (std::logic_error otherwise).
  /// Not cancellable; zero allocations once the lane's ring has reached
  /// its high-water mark.
  void schedule(LaneId lane, Time at, Callback&& callback);

  /// Cancel a pending event in O(1). Cancelling an already-fired, already-
  /// cancelled, or unknown id is a harmless no-op (timers are routinely
  /// cancelled after firing) and leaves no residue.
  void cancel(EventId id) noexcept;

  /// True when no live (non-cancelled) events remain. O(1).
  bool empty() const noexcept { return live_ == 0; }

  /// Upper bound on pending events: live events plus heap tombstones not
  /// yet swept.
  std::size_t size() const noexcept {
    return live_ + (heap_.size() - heap_live_);
  }

  /// Live (scheduled and not yet fired or cancelled) events, lanes included.
  std::size_t live_count() const noexcept { return live_; }

  /// Earliest live event time; kNoTime when empty. Prunes tombstones.
  Time next_time() noexcept;

  /// Pop the earliest live event if it fires at or before `limit`, moving
  /// its callback into `out`. The simulator's run loop uses this to peek
  /// and pop in one pass. Returns false when nothing fires by `limit`.
  bool pop_until(Time limit, Time& at_out, Callback& out);

  /// Total events ever scheduled (including later-cancelled ones).
  std::uint64_t scheduled_count() const noexcept { return scheduled_; }

 private:
  struct Entry {  // 16-byte POD moved during sifts; callbacks stay put.
    Time at;
    std::uint32_t seq;   // FIFO tiebreak AND liveness tag (never 0)
    std::uint32_t slot;  // index into slots_, or kLaneTag | lane index
  };
  struct Slot {
    Callback callback;
    std::uint32_t live_seq = 0;  // seq of the armed event; 0 when free
    std::uint32_t next_free = kNilSlot;
  };
  struct LaneEvent {
    Time at = 0.0;
    std::uint32_t seq = 0;
    Callback callback;
  };
  struct Lane {
    Ring<LaneEvent> events{16};
    Time last_at = -std::numeric_limits<Time>::infinity();  // newest push
  };
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::uint32_t kLaneTag = 0x80000000u;

  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    // Wrap-aware: correct while coexisting entries span < 2^31 schedules.
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }
  static EventId pack(std::uint32_t seq, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(seq) << 32) | slot;
  }
  /// Lane heads are always live: lane events cannot be cancelled.
  bool is_live(const Entry& e) const noexcept {
    return (e.slot & kLaneTag) != 0 || slots_[e.slot].live_seq == e.seq;
  }

  std::uint32_t next_seq() noexcept;
  /// Push a live entry onto the heap (a schedule()d event or a lane head).
  void push_entry(const Entry& e);
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void pop_top() noexcept;
  /// Discard stale entries surfacing at the heap top.
  void drop_dead_top() noexcept;
  /// Rebuild the heap without tombstones once they outnumber the live
  /// heap entries (amortized O(1) per cancel); bounds heap growth under
  /// far-future schedule/cancel churn that never surfaces at the top.
  void compact() noexcept;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<Lane> lanes_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;  // live events, lane-queued ones included
  // Live heap entries: schedule()d events plus one per non-empty lane.
  std::size_t heap_live_ = 0;
  std::uint32_t next_seq_ = 1;  // 0 reserved for "no event"
  std::uint64_t scheduled_ = 0;
};

}  // namespace xp::sim
