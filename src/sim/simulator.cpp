#include "sim/simulator.h"

#include <utility>

#include "util/budget.h"

namespace xp::sim {

EventId Simulator::schedule_at(Time at, Callback&& callback) {
  if (at < now_) at = now_;
  return queue_.schedule(at, std::move(callback));
}

EventId Simulator::schedule_in(Time delay, Callback&& callback) {
  if (delay < 0.0) delay = 0.0;
  return queue_.schedule(now_ + delay, std::move(callback));
}

void Simulator::schedule_in(LaneId lane, Time delay, Callback&& callback) {
  if (delay < 0.0) delay = 0.0;
  queue_.schedule(lane, now_ + delay, std::move(callback));
}

void Simulator::run_until(Time until) {
  Time at = 0.0;
  Callback callback;
  while (queue_.pop_until(until, at, callback)) {
    // Budget check between events (one predictable compare in the
    // unlimited case): the popped event is charged before it runs, so an
    // exhausted budget throws instead of executing event budget + 1.
    if (event_budget_ != 0 && executed_ >= event_budget_) {
      util::throw_budget_exceeded("sim", "events", event_budget_);
    }
    now_ = at;
    ++executed_;
    callback();
  }
  if (now_ < until) now_ = until;
}

}  // namespace xp::sim
