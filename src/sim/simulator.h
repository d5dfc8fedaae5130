// The discrete-event simulation kernel.
//
// A Simulator owns the clock and the event queue. Components (links,
// connections, applications) hold a reference to it and schedule callbacks.
// Single-threaded by design: determinism matters more than parallelism for
// experiment reproduction, and one scenario run is milliseconds-to-seconds
// of CPU.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace xp::sim {

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Time now() const noexcept { return now_; }

  /// Schedule at an absolute time (clamped to `now` if in the past).
  EventId schedule_at(Time at, Callback&& callback);
  /// Schedule `delay` seconds from now (negative delays clamp to zero).
  EventId schedule_in(Time delay, Callback&& callback);
  void cancel(EventId id) { queue_.cancel(id); }

  /// Open a FIFO lane for a constant-delay event stream (a propagation
  /// pipe, a reverse ACK path). Lane events skip the heap sift but keep
  /// the exact order schedule_in would give them; see EventQueue.
  LaneId add_lane() { return queue_.add_lane(); }
  /// Schedule `delay` seconds from now on `lane` (negative delays clamp to
  /// zero). Not cancellable; throws std::logic_error if the time is
  /// earlier than the lane's previous event.
  void schedule_in(LaneId lane, Time delay, Callback&& callback);

  /// Run until the queue drains or the clock passes `until`.
  /// Events at exactly `until` are executed.
  void run_until(Time until);

  /// Cooperative work budget: run_until throws util::BudgetExceeded
  /// before executing event max_events + 1 (0 = unlimited, the default).
  /// The cap counts *lifetime* executed events, checked between events —
  /// a runaway event cascade can overshoot by at most one callback, and
  /// whether the budget trips is a pure function of (config, seed).
  void set_event_budget(std::uint64_t max_events) noexcept {
    event_budget_ = max_events;
  }

  std::uint64_t events_executed() const noexcept { return executed_; }
  std::uint64_t events_scheduled() const noexcept {
    return queue_.scheduled_count();
  }

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  std::uint64_t event_budget_ = 0;  ///< 0 = unlimited
};

}  // namespace xp::sim
