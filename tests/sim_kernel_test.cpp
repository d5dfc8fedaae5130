// Event queue, simulator kernel, droptail queue, link.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/queue.h"
#include "sim/simulator.h"

namespace xp::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(3.0, [&] { fired.push_back(3); });
  while (!q.empty()) q.try_pop()->callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.try_pop()->callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0, [&] { fired.push_back(1); });
  const EventId id = q.schedule(2.0, [&] { fired.push_back(2); });
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.try_pop()->callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelAllMakesEmpty) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(2.0, [] {});
  q.cancel(a);
  q.cancel(b);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.try_pop().has_value());
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
  while (!q.empty()) q.try_pop()->callback();
  EXPECT_EQ(fired, (std::vector<int>{0, 2, 3, 5}));
}

TEST(EventQueue, CancelAfterFireIsNoOpEvenWithSlotReuse) {
  // The generation scheme's core guarantee: a handle to a fired event can
  // never hit the event that now occupies the recycled slot.
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.schedule(1.0, [&] { fired.push_back(1); });
  q.try_pop()->callback();                                   // fire a
  q.schedule(2.0, [&] { fired.push_back(2); });              // reuses a's slot
  q.cancel(a);                                               // stale handle
  while (!q.empty()) q.try_pop()->callback();
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
  while (!q.empty()) q.try_pop()->callback();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueue, CancelAfterFireDoesNotAccumulateState) {
  // The old tombstone-set design leaked an entry forever on every
  // cancel-after-fire; the generation scheme must keep the queue empty.
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    const EventId id = q.schedule(static_cast<Time>(i), [] {});
    q.try_pop()->callback();
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
  q.try_pop()->callback();
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
    while (!q.empty()) q.try_pop()->callback();
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 5, 7}));
  }
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
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  sim.run_until(10.0);
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_EQ(sim.events_scheduled(), 10u);
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
