// Event queue, simulator kernel, droptail queue, link.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/queue.h"
#include "sim/simulator.h"

namespace xp::sim {
namespace {

constexpr Time kForever = std::numeric_limits<Time>::infinity();

/// Pop and run the earliest live event; false when none remain.
bool fire_next(EventQueue& q) {
  Time at = 0.0;
  EventQueue::Callback callback;
  if (!q.pop_until(kForever, at, callback)) return false;
  callback();
  return true;
}

/// Run every live event in order.
void fire_all(EventQueue& q) {
  while (fire_next(q)) {
  }
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(3.0, [&] { fired.push_back(3); });
  fire_all(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  fire_all(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0, [&] { fired.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.cancel(id);
  fire_all(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelAllMakesEmpty) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(2.0, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fire_next(q));
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.cancel(999);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, FifoSurvivesInterleavedCancel) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.schedule(1.0, [&fired, i] { fired.push_back(i); }));
  }
  q.cancel(ids[1]);
  q.cancel(ids[4]);
  fire_all(q);
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5}));
}

TEST(EventQueue, CancelAfterFireIsNoOpEvenWithSlotReuse) {
  // The generation scheme's core guarantee: a handle to a fired event can
  // never hit the event that now occupies the recycled slot.
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule(1.0, [&] { fired.push_back(1); });
  EXPECT_TRUE(fire_next(q));                     // fire a
  q.schedule(2.0, [&] { fired.push_back(2); });  // reuses a's slot
  q.cancel(a);                                   // stale handle
  fire_all(q);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CancelRescheduleCycleKeepsHandlesDistinct) {
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule(1.0, [&] { fired.push_back(1); });
  q.cancel(a);
  const EventId b = q.schedule(1.0, [&] { fired.push_back(2); });
  q.cancel(a);  // double-cancel of the stale handle: must not touch b
  EXPECT_NE(a, b);
  fire_all(q);
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, CancelAfterFireDoesNotAccumulateState) {
  // The old tombstone-set design leaked an entry forever on every
  // cancel-after-fire; the generation scheme must keep the queue empty.
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    const EventId id = q.schedule(static_cast<Time>(i), [] {});
    EXPECT_TRUE(fire_next(q));
    q.cancel(id);
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureCancelChurnStaysBounded) {
  // Cancelled entries whose times are never reached must not pile up as
  // heap tombstones (compaction sweeps them).
  EventQueue q;
  q.schedule(1.0, [] {});  // one live event
  for (int i = 0; i < 100000; ++i) {
    q.cancel(q.schedule(1e9 + i, [] {}));
  }
  EXPECT_LT(q.size(), 100u);
  EXPECT_EQ(q.live_count(), 1u);
}

TEST(EventQueue, FarFutureCancelChurnStaysBoundedBesideALane) {
  // Lane-queued events are live but hold no heap entry (only the lane's
  // head does), so compaction must weigh tombstones against the live heap
  // entries, not against every live event.
  EventQueue q;
  const LaneId lane = q.add_lane();
  q.schedule(1.0, [] {});
  for (int i = 0; i < 1000; ++i) q.schedule(lane, 2.0 + i, [] {});
  for (int i = 0; i < 100000; ++i) {
    q.cancel(q.schedule(1e9 + i, [] {}));
  }
  EXPECT_LT(q.size(), 1100u);
  EXPECT_EQ(q.live_count(), 1001u);
  int fired = 0;
  Time at = 0.0;
  EventQueue::Callback callback;
  Time last = 0.0;
  while (q.pop_until(kForever, at, callback)) {
    EXPECT_GE(at, last);
    last = at;
    ++fired;
  }
  EXPECT_EQ(fired, 1001);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ZeroIsNeverAValidHandle) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.cancel(0);  // the "no event" sentinel must be a safe no-op
  EXPECT_EQ(q.live_count(), 1u);
}

TEST(EventQueue, LargeCallableFallsBackToHeapAndFires) {
  EventQueue q;
  std::array<double, 64> big{};  // 512-byte capture exceeds inline storage
  big[63] = 7.0;
  double observed = 0.0;
  q.schedule(1.0, [big, &observed] { observed = big[63]; });
  EXPECT_TRUE(fire_next(q));
  EXPECT_DOUBLE_EQ(observed, 7.0);
}

TEST(EventQueue, EqualTimeOrderIsSchedulingOrderAcrossReuse) {
  // Slot recycling must not perturb same-timestamp FIFO order.
  EventQueue q;
  std::vector<int> fired;
  for (int round = 0; round < 3; ++round) {
    fired.clear();
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(q.schedule(1.0, [&fired, i] { fired.push_back(i); }));
    }
    for (int i = 0; i < 8; i += 2) q.cancel(ids[i]);
    fire_all(q);
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 5, 7}));
  }
}

TEST(EventQueue, LaneEventsPopInTheOrderTheHeapWouldGiveThem) {
  // Reference: a twin queue takes every event through schedule(). The lane
  // queue puts per-lane constant-delay streams on lanes instead. Times
  // sit on a 0.5 grid so ties are common: within a lane, across lanes
  // sharing a delay, and against heap events at equal times. Both queues
  // must fire the same events in the same order at the same times.
  constexpr int kSequences = 2000;
  constexpr std::array<Time, 4> kLaneDelay{1.0, 1.0, 0.5, 0.0};
  std::mt19937_64 engine(20240611);
  const auto pick = [&engine](std::uint64_t n) { return engine() % n; };
  for (int sequence = 0; sequence < kSequences; ++sequence) {
    EventQueue laned;
    EventQueue twin;
    std::array<LaneId, kLaneDelay.size()> lanes{};
    for (LaneId& lane : lanes) lane = laned.add_lane();
    std::vector<int> fired_laned;
    std::vector<int> fired_twin;
    std::vector<std::pair<EventId, EventId>> handles;
    Time now = 0.0;
    int next_event = 0;
    const auto pop = [&](Time limit) {
      Time at_laned = 0.0;
      Time at_twin = 0.0;
      EventQueue::Callback cb_laned;
      EventQueue::Callback cb_twin;
      const bool got_laned = laned.pop_until(limit, at_laned, cb_laned);
      const bool got_twin = twin.pop_until(limit, at_twin, cb_twin);
      ASSERT_EQ(got_laned, got_twin);
      if (!got_laned) return;
      ASSERT_EQ(at_laned, at_twin);
      ASSERT_GE(at_laned, now);
      now = at_laned;
      cb_laned();
      cb_twin();
    };
    const int ops = 20 + static_cast<int>(pick(200));
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t kind = pick(10);
      const int id = next_event++;
      if (kind < 4) {
        const std::size_t k = pick(lanes.size());
        const Time at = now + kLaneDelay[k];
        laned.schedule(lanes[k], at, [&fired_laned, id] {
          fired_laned.push_back(id);
        });
        twin.schedule(at, [&fired_twin, id] { fired_twin.push_back(id); });
      } else if (kind < 7) {
        const Time at = now + 0.5 * static_cast<Time>(pick(5));
        handles.emplace_back(
            laned.schedule(at, [&fired_laned, id] {
              fired_laned.push_back(id);
            }),
            twin.schedule(at, [&fired_twin, id] { fired_twin.push_back(id); }));
      } else if (kind < 8) {
        if (!handles.empty()) {
          const auto& [laned_id, twin_id] = handles[pick(handles.size())];
          laned.cancel(laned_id);  // may be stale: a no-op on both
          twin.cancel(twin_id);
        }
      } else {
        pop(kind == 8 ? kForever : now + 0.5 * static_cast<Time>(pick(3)));
        ASSERT_FALSE(HasFatalFailure()) << "sequence " << sequence;
      }
      ASSERT_EQ(laned.live_count(), twin.live_count());
      ASSERT_EQ(laned.scheduled_count(), twin.scheduled_count());
      ASSERT_EQ(laned.next_time(), twin.next_time());
    }
    while (!twin.empty() && !HasFatalFailure()) pop(kForever);
    EXPECT_TRUE(laned.empty());
    ASSERT_EQ(fired_laned, fired_twin) << "sequence " << sequence;
  }
}

TEST(EventQueue, LaneTimeGoingBackwardsThrows) {
  EventQueue q;
  const LaneId lane = q.add_lane();
  q.schedule(lane, 2.0, [] {});
  q.schedule(lane, 2.0, [] {});  // equal times are fine
  EXPECT_THROW(q.schedule(lane, 1.5, [] {}), std::logic_error);
  EXPECT_EQ(q.live_count(), 2u);
  fire_all(q);
  // The bound is the lane's newest event ever, not its current contents.
  EXPECT_THROW(q.schedule(lane, 1.9, [] {}), std::logic_error);
  // Another lane has its own bound.
  const LaneId other = q.add_lane();
  q.schedule(other, 1.0, [] {});
  EXPECT_EQ(q.live_count(), 1u);
}

TEST(Simulator, LaneDelayShrinkingThrows) {
  Simulator sim;
  const LaneId lane = sim.add_lane();
  sim.schedule_in(lane, 0.5, [] {});
  EXPECT_THROW(sim.schedule_in(lane, 0.25, [] {}), std::logic_error);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_at(1.5, [&] { times.push_back(sim.now()); });
  sim.schedule_at(0.5, [&] { times.push_back(sim.now()); });
  sim.run_until(2.0);
  EXPECT_EQ(times, (std::vector<Time>{0.5, 1.5}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run_until(1.5);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  sim.run_until(3.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleInRelativeToNow) {
  Simulator sim;
  Time observed = -1.0;
  sim.schedule_at(1.0, [&] {
    sim.schedule_in(0.5, [&] { observed = sim.now(); });
  });
  sim.run_until(2.0);
  EXPECT_DOUBLE_EQ(observed, 1.5);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  Time observed = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_at(1.0, [&] { observed = sim.now(); });  // in the past
  });
  sim.run_until(3.0);
  EXPECT_DOUBLE_EQ(observed, 2.0);
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  const LaneId lane = sim.add_lane();
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i, [&sim, lane] { sim.schedule_in(lane, 0.25, [] {}); });
  }
  for (int i = 0; i < 5; ++i) sim.schedule_in(lane, 0.25, [] {});
  sim.run_until(10.0);
  EXPECT_EQ(sim.events_executed(), 25u);
  EXPECT_EQ(sim.events_scheduled(), 25u);
}

Packet make_packet(std::uint32_t size, FlowId flow = 0) {
  Packet p;
  p.flow = flow;
  p.size_bytes = size;
  return p;
}

TEST(DropTailQueue, AcceptsUntilCapacity) {
  DropTailQueue q(3000);
  EXPECT_TRUE(q.enqueue(make_packet(1500)));
  EXPECT_TRUE(q.enqueue(make_packet(1500)));
  EXPECT_FALSE(q.enqueue(make_packet(1500)));  // full
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.byte_count(), 3000u);
  EXPECT_EQ(q.packet_count(), 2u);
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(100000);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    q.enqueue(make_packet(100, i));
  }
  EXPECT_EQ(q.dequeue()->flow, 1u);
  EXPECT_EQ(q.dequeue()->flow, 2u);
  EXPECT_EQ(q.dequeue()->flow, 3u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropCallbackInvoked) {
  DropTailQueue q(100);
  FlowId dropped = 999;
  q.set_drop_callback([&](const Packet& p) { dropped = p.flow; });
  q.enqueue(make_packet(100, 1));
  q.enqueue(make_packet(100, 2));
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(q.dropped_bytes(), 100u);
}

TEST(DropTailQueue, TracksHighWaterMark) {
  DropTailQueue q(10000);
  q.enqueue(make_packet(4000));
  q.enqueue(make_packet(4000));
  q.dequeue();
  EXPECT_EQ(q.max_bytes_seen(), 8000u);
}

TEST(Link, DeliversWithSerializationAndPropagation) {
  Simulator sim;
  // 8 Mb/s, 10 ms propagation: a 1000-byte packet takes 1 ms + 10 ms.
  Link link(sim, 8e6, 0.010, 100000);
  std::vector<Time> deliveries;
  link.set_sink([&](const Packet&) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  sim.run_until(1.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_NEAR(deliveries[0], 0.011, 1e-12);
}

TEST(Link, BackToBackSerialization) {
  Simulator sim;
  Link link(sim, 8e6, 0.0, 100000);
  std::vector<Time> deliveries;
  link.set_sink([&](const Packet&) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  link.send(make_packet(1000));
  sim.run_until(1.0);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], 0.001, 1e-12);
  EXPECT_NEAR(deliveries[1], 0.002, 1e-12);
}

TEST(Link, DropsWhenQueueFull) {
  Simulator sim;
  Link link(sim, 8e3, 0.0, 1500);  // slow link, tiny buffer
  int delivered = 0;
  link.set_sink([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.send(make_packet(1000));
  sim.run_until(60.0);
  EXPECT_LT(delivered, 10);
  EXPECT_GT(link.queue().drops(), 0u);
}

TEST(Link, UtilizationFullWhenSaturated) {
  Simulator sim;
  Link link(sim, 8e6, 0.0, 1000000);
  link.set_sink([](const Packet&) {});
  for (int i = 0; i < 100; ++i) link.send(make_packet(1000));
  sim.run_until(0.1);  // exactly the time to serialize 100 packets
  EXPECT_NEAR(link.utilization(), 1.0, 1e-9);
}

TEST(Link, QueueingDelayReflectsBacklog) {
  Simulator sim;
  Link link(sim, 8e6, 0.0, 1000000);
  link.set_sink([](const Packet&) {});
  for (int i = 0; i < 9; ++i) link.send(make_packet(1000));
  // 8 packets still queued (one in service); ~8 ms of drain at 1 ms/pkt.
  EXPECT_NEAR(link.queueing_delay(), 0.008, 1e-9);
}

}  // namespace
}  // namespace xp::sim
