// TCP machinery: RTT estimation, windowed filters, congestion control
// algorithms, the SACK scoreboard, and connection-level behaviours on a
// controlled link.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/link.h"
#include "sim/tcp/bbr.h"
#include "sim/tcp/connection.h"
#include "sim/tcp/cubic.h"
#include "sim/tcp/reno.h"
#include "sim/tcp/rtt_estimator.h"
#include "sim/tcp/scoreboard.h"
#include "sim/tcp/windowed_filter.h"
#include "stats/rng.h"

namespace xp::sim {
namespace {

TEST(RttEstimator, FirstSampleInitializes) {
  RttEstimator est;
  est.add_sample(0.1);
  EXPECT_DOUBLE_EQ(est.smoothed_rtt(), 0.1);
  EXPECT_DOUBLE_EQ(est.rtt_variance(), 0.05);
  EXPECT_DOUBLE_EQ(est.min_rtt(), 0.1);
}

TEST(RttEstimator, EwmaConverges) {
  RttEstimator est;
  for (int i = 0; i < 200; ++i) est.add_sample(0.05);
  EXPECT_NEAR(est.smoothed_rtt(), 0.05, 1e-9);
  EXPECT_NEAR(est.rtt_variance(), 0.0, 1e-6);
}

TEST(RttEstimator, MinTracksSmallest) {
  RttEstimator est;
  est.add_sample(0.2);
  est.add_sample(0.05);
  est.add_sample(0.3);
  EXPECT_DOUBLE_EQ(est.min_rtt(), 0.05);
  EXPECT_DOUBLE_EQ(est.latest_rtt(), 0.3);
}

TEST(RttEstimator, RtoRespectsFloorAndBackoff) {
  RttEstimator est(0.2);
  est.add_sample(0.01);
  EXPECT_DOUBLE_EQ(est.rto(), 0.2);  // floor binds
  est.backoff();
  EXPECT_DOUBLE_EQ(est.rto(), 0.2);  // 2x small value still floored
  for (int i = 0; i < 12; ++i) est.backoff();
  EXPECT_GT(est.rto(), 0.2);
  est.reset_backoff();
  EXPECT_DOUBLE_EQ(est.rto(), 0.2);
}

TEST(RttEstimator, IgnoresNonPositiveSamples) {
  RttEstimator est;
  est.add_sample(-1.0);
  est.add_sample(0.0);
  EXPECT_FALSE(est.has_sample());
}

TEST(WindowedFilter, MaxTracksAndExpires) {
  MaxFilter filter(10.0);
  filter.update(5.0, 0.0);
  filter.update(3.0, 1.0);
  EXPECT_DOUBLE_EQ(filter.get(), 5.0);
  filter.update(2.0, 12.0);  // both earlier samples are out of the window
  EXPECT_DOUBLE_EQ(filter.get(), 2.0);
  filter.update(4.0, 13.0);
  EXPECT_DOUBLE_EQ(filter.get(), 4.0);
}

TEST(WindowedFilter, MinSemantics) {
  MinFilter filter(100.0);
  filter.update(5.0, 0.0);
  filter.update(7.0, 1.0);
  filter.update(3.0, 2.0);
  EXPECT_DOUBLE_EQ(filter.get(), 3.0);
  filter.update(9.0, 3.0);
  EXPECT_DOUBLE_EQ(filter.get(), 3.0);
}

TEST(WindowedFilter, FallbackWhenEmpty) {
  MaxFilter filter(1.0);
  EXPECT_DOUBLE_EQ(filter.get(42.0), 42.0);
  filter.update(1.0, 0.0);
  filter.advance(100.0);
  EXPECT_TRUE(filter.empty());
}

CcConfig test_cc_config() {
  CcConfig config;
  config.mss_bytes = 1000;
  config.initial_cwnd_packets = 10;
  return config;
}

TEST(Reno, SlowStartDoublesPerRtt) {
  RenoCc reno(test_cc_config());
  const double start = reno.cwnd_bytes();
  AckSample sample;
  sample.newly_acked_bytes = static_cast<std::uint64_t>(start);
  reno.on_ack(sample);
  EXPECT_NEAR(reno.cwnd_bytes(), 2.0 * start, 1e-9);
  EXPECT_TRUE(reno.in_slow_start());
}

TEST(Reno, LossHalvesAndExitsSlowStart) {
  RenoCc reno(test_cc_config());
  const double before = reno.cwnd_bytes();
  reno.on_loss(0.0);
  EXPECT_NEAR(reno.cwnd_bytes(), before / 2.0, 1e-9);
  EXPECT_FALSE(reno.in_slow_start());
}

TEST(Reno, CongestionAvoidanceLinearGrowth) {
  RenoCc reno(test_cc_config());
  reno.on_loss(0.0);  // exit slow start
  const double cwnd = reno.cwnd_bytes();
  // One full window of ACKs should add ~1 MSS.
  AckSample sample;
  sample.newly_acked_bytes = static_cast<std::uint64_t>(cwnd);
  reno.on_ack(sample);
  EXPECT_NEAR(reno.cwnd_bytes(), cwnd + 1000.0, 50.0);
}

TEST(Reno, TimeoutCollapsesToOneMss) {
  RenoCc reno(test_cc_config());
  reno.on_timeout(0.0);
  EXPECT_NEAR(reno.cwnd_bytes(), 1000.0, 1e-9);
}

TEST(Reno, CwndNeverBelowFloorOnRepeatedLoss) {
  RenoCc reno(test_cc_config());
  for (int i = 0; i < 50; ++i) reno.on_loss(0.0);
  EXPECT_GE(reno.cwnd_bytes(), 2000.0);
}

TEST(Reno, PacingRateUsesLinuxGains) {
  RenoCc reno(test_cc_config());
  const double cwnd = reno.cwnd_bytes();
  EXPECT_NEAR(reno.pacing_rate_bps(0.1), 2.0 * cwnd * 8.0 / 0.1, 1e-6);
  reno.on_loss(0.0);
  const double ca_cwnd = reno.cwnd_bytes();
  EXPECT_NEAR(reno.pacing_rate_bps(0.1), 1.2 * ca_cwnd * 8.0 / 0.1, 1e-6);
}

TEST(Cubic, LossAppliesBetaDecrease) {
  CubicCc cubic(test_cc_config());
  const double before = cubic.cwnd_bytes();
  cubic.on_loss(0.0);
  EXPECT_NEAR(cubic.cwnd_bytes(), 0.7 * before, 1e-6);
}

TEST(Cubic, GrowsTowardWmaxAfterLoss) {
  CubicCc cubic(test_cc_config());
  cubic.on_loss(0.0);
  const double floor = cubic.cwnd_bytes();
  AckSample sample;
  sample.rtt_s = 0.01;
  sample.newly_acked_bytes = 1000;
  for (int i = 0; i < 500; ++i) {
    sample.now = i * 0.01;
    cubic.on_ack(sample);
  }
  EXPECT_GT(cubic.cwnd_bytes(), floor * 1.2);
}

TEST(Cubic, FastConvergenceLowersWmax) {
  CubicCc cubic(test_cc_config());
  cubic.on_loss(0.0);
  const double after_first = cubic.cwnd_bytes();
  // Second loss before recovering to w_max: fast convergence kicks in and
  // the new cwnd is again beta * current.
  cubic.on_loss(1.0);
  EXPECT_NEAR(cubic.cwnd_bytes(), 0.7 * after_first, 1e-6);
}

TEST(Bbr, StartsInStartupWithHighGain) {
  BbrCc bbr(test_cc_config());
  EXPECT_EQ(bbr.state(), BbrCc::State::kStartup);
  EXPECT_GT(bbr.pacing_rate_bps(0.1), 0.0);
}

TEST(Bbr, ReachesProbeBwOnPlateau) {
  BbrCc bbr(test_cc_config());
  AckSample sample;
  sample.rtt_s = 0.02;
  sample.delivery_rate_bps = 50e6;
  std::uint64_t delivered = 0;
  for (int i = 0; i < 60; ++i) {
    sample.now = i * 0.02;
    delivered += 20000;
    sample.delivered_bytes = delivered;
    sample.inflight_bytes = 10000;
    bbr.on_ack(sample);
  }
  EXPECT_EQ(bbr.state(), BbrCc::State::kProbeBw);
  EXPECT_NEAR(bbr.bottleneck_bw_bps(), 50e6, 1e-6);
  EXPECT_NEAR(bbr.min_rtt_s(), 0.02, 1e-12);
}

TEST(Bbr, CwndIsGainTimesBdp) {
  BbrCc bbr(test_cc_config());
  AckSample sample;
  sample.rtt_s = 0.02;
  sample.delivery_rate_bps = 50e6;
  std::uint64_t delivered = 0;
  for (int i = 0; i < 60; ++i) {
    sample.now = i * 0.02;
    delivered += 20000;
    sample.delivered_bytes = delivered;
    sample.inflight_bytes = 10000;
    bbr.on_ack(sample);
  }
  const double bdp = 50e6 * 0.02 / 8.0;
  EXPECT_NEAR(bbr.cwnd_bytes(), 2.0 * bdp, bdp * 0.1);
}

TEST(Bbr, LossDoesNotChangeModel) {
  BbrCc bbr(test_cc_config());
  AckSample sample;
  sample.rtt_s = 0.02;
  sample.delivery_rate_bps = 50e6;
  sample.delivered_bytes = 100000;
  sample.inflight_bytes = 125000;  // ~1 BDP at 50 Mb/s, 20 ms
  bbr.on_ack(sample);
  const double bw_before = bbr.bottleneck_bw_bps();
  bbr.on_loss(1.0);
  EXPECT_DOUBLE_EQ(bbr.bottleneck_bw_bps(), bw_before);
  // Conservation bounds cwnd at inflight during recovery.
  EXPECT_LE(bbr.cwnd_bytes(), 125000.0 + 1.0);
}

TEST(Bbr, TimeoutCollapsesUntilDeliveryResumes) {
  BbrCc bbr(test_cc_config());
  bbr.on_timeout(0.0);
  EXPECT_NEAR(bbr.cwnd_bytes(), 4000.0, 1e-9);
  AckSample sample;
  sample.newly_acked_bytes = 1000;
  sample.rtt_s = 0.02;
  bbr.on_ack(sample);
  EXPECT_GT(bbr.cwnd_bytes(), 4000.0 - 1.0);
}

TEST(CcFactory, BbrMustPace) {
  const auto bbr =
      make_congestion_control(CcAlgorithm::kBbr, test_cc_config());
  EXPECT_TRUE(bbr->must_pace());
  const auto reno =
      make_congestion_control(CcAlgorithm::kReno, test_cc_config());
  EXPECT_FALSE(reno->must_pace());
}

// --- SACK scoreboard ---

TEST(SackScoreboard, SkipsRetransmittedRangesAndRtoReopensThem) {
  SackScoreboard board;
  board.mark_sacked(6, 10);
  EXPECT_EQ(board.next_lost(0, 10), 0u);
  for (std::uint64_t seq = 0; seq < 3; ++seq) board.mark_retransmitted(seq);
  EXPECT_EQ(board.next_lost(0, 10), 3u);
  board.mark_retransmitted(3);
  board.mark_retransmitted(4);
  board.mark_retransmitted(5);
  EXPECT_EQ(board.next_lost(0, 10), SackScoreboard::kNone);
  EXPECT_EQ(board.retransmitted_count(), 6u);
  board.mark_sacked(2, 4);  // two retransmissions confirmed
  EXPECT_EQ(board.retransmitted_count(), 4u);
  EXPECT_EQ(board.sacked_count(), 6u);
  board.forget_retransmissions();
  EXPECT_EQ(board.next_lost(1, 10), 1u);
  board.trim_below(5);
  EXPECT_EQ(board.sacked_count(), 4u);
  EXPECT_EQ(board.next_lost(5, 10), 5u);
}

/// Brute-force scoreboard: one (sacked, retransmitted) flag pair per
/// segment, scanned linearly from snd_una.
struct ReferenceScoreboard {
  std::vector<bool> sacked;
  std::vector<bool> retx;
  std::uint64_t snd_una = 0;

  explicit ReferenceScoreboard(std::uint64_t segments)
      : sacked(segments), retx(segments) {}

  std::uint64_t next_lost(std::uint64_t limit) const {
    for (std::uint64_t seq = snd_una; seq < limit; ++seq) {
      if (!sacked[seq] && !retx[seq]) return seq;
    }
    return SackScoreboard::kNone;
  }
  std::uint64_t count(const std::vector<bool>& flags) const {
    std::uint64_t n = 0;
    for (std::uint64_t seq = snd_una; seq < flags.size(); ++seq) n += flags[seq];
    return n;
  }
};

// Seeded random sequences of what the sender does to its scoreboard —
// SACK blocks, retransmissions of the returned hole, cumulative-ACK trims,
// RTO forgets, new data and a moving loss horizon — checked against the
// reference after every operation: the cursor and the range jumps must
// never change an answer.
TEST(SackScoreboard, NextLostMatchesBruteForceReference) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    stats::Rng rng(seed);
    const std::uint64_t window = 1 + rng.uniform_int(512);
    const std::uint64_t segments = 4 * window;
    SackScoreboard board;
    ReferenceScoreboard ref(segments);
    std::uint64_t snd_nxt = window;
    std::uint64_t limit = 0;
    for (int op = 0; op < 64; ++op) {
      const std::uint64_t snd_una = ref.snd_una;
      switch (rng.uniform_int(6)) {
        case 0:  // SACK block inside the flight
          if (snd_una < snd_nxt) {
            const std::uint64_t start =
                snd_una + rng.uniform_int(snd_nxt - snd_una);
            const std::uint64_t end = std::min(
                snd_nxt, start + 1 + rng.uniform_int(1 + window / 8));
            board.mark_sacked(start, end);
            for (std::uint64_t seq = start; seq < end; ++seq) {
              ref.sacked[seq] = true;
              ref.retx[seq] = false;
            }
          }
          break;
        case 1: {  // retransmit the hole the search returns
          const std::uint64_t hole = board.next_lost(snd_una, limit);
          if (hole != SackScoreboard::kNone) {
            board.mark_retransmitted(hole);
            ref.retx[hole] = true;
          }
          break;
        }
        case 2:  // cumulative ACK
          if (snd_una < snd_nxt) {
            ref.snd_una = snd_una + 1 + rng.uniform_int(snd_nxt - snd_una);
            board.trim_below(ref.snd_una);
          }
          break;
        case 3:  // RTO
          board.forget_retransmissions();
          ref.retx.assign(segments, false);
          break;
        case 4:  // new data, up to a window beyond snd_una
          snd_nxt = std::min(
              {segments, snd_una + window,
               snd_nxt + 1 + rng.uniform_int(1 + window / 4)});
          break;
        default:  // the loss horizon moves, either way
          limit = rng.uniform_int(snd_nxt + 1);
          break;
      }
      ASSERT_EQ(board.next_lost(ref.snd_una, limit), ref.next_lost(limit))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(board.sacked_count(), ref.count(ref.sacked))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(board.retransmitted_count(), ref.count(ref.retx))
          << "seed " << seed << " op " << op;
    }
  }
}

// --- Connection-level behaviour on a lossless link ---

struct ConnWorld {
  Simulator sim;
  std::unique_ptr<Link> link;
  std::unique_ptr<TcpConnection> conn;

  explicit ConnWorld(CcAlgorithm algo, Bps rate = 8e6,
                     std::uint64_t buffer = 1000000) {
    link = std::make_unique<Link>(sim, rate, 0.005, buffer);
    ConnectionConfig config;
    config.id = 0;
    config.algorithm = algo;
    config.mss_bytes = 1000;
    config.header_bytes = 40;
    config.reverse_delay = 0.005;
    config.min_rto = 0.05;
    conn = std::make_unique<TcpConnection>(
        sim, config, [this](const Packet& p) { link->send(p); });
    link->set_sink([this](const Packet& p) { conn->on_data_at_receiver(p); });
  }
};

TEST(Connection, FillsLosslessLink) {
  ConnWorld world(CcAlgorithm::kReno);
  world.conn->start();
  world.sim.run_until(5.0);
  const double throughput =
      world.conn->stats().bytes_acked * 8.0 / 5.0;
  EXPECT_GT(throughput, 0.85 * 8e6);  // ~full rate minus headers/startup
  EXPECT_EQ(world.conn->stats().timeouts, 0u);
}

TEST(Connection, MeasuresBaseRttWhenUncongested) {
  ConnWorld world(CcAlgorithm::kReno, 100e6);
  world.conn->start();
  world.sim.run_until(1.0);
  // Base RTT = 5 ms forward + 5 ms reverse (plus tiny serialization).
  EXPECT_NEAR(world.conn->stats().min_rtt, 0.010, 0.001);
}

TEST(Connection, RecoversFromTinyBuffer) {
  // Heavy loss: buffer of ~3 packets. The connection must keep making
  // progress via SACK recovery without deadlocking.
  ConnWorld world(CcAlgorithm::kReno, 8e6, 3200);
  world.conn->start();
  world.sim.run_until(5.0);
  EXPECT_GT(world.conn->stats().bytes_acked, 8e6 / 8 * 5 * 0.4);
  EXPECT_GT(world.conn->stats().segments_retransmitted, 0u);
}

TEST(Connection, RetransmitAccountingConsistent) {
  ConnWorld world(CcAlgorithm::kCubic, 8e6, 5000);
  world.conn->start();
  world.sim.run_until(5.0);
  const ConnectionStats& s = world.conn->stats();
  EXPECT_EQ(s.bytes_sent,
            s.segments_sent * 1000u);
  EXPECT_EQ(s.bytes_retransmitted, s.segments_retransmitted * 1000u);
  EXPECT_LE(s.bytes_retransmitted, s.bytes_sent);
  EXPECT_GT(s.retransmit_fraction(), 0.0);
  EXPECT_LT(s.retransmit_fraction(), 0.5);
}

TEST(Connection, PacedSenderSmoothsDepartures) {
  ConnWorld unpaced(CcAlgorithm::kReno, 8e6);
  EXPECT_FALSE(unpaced.conn->pacing_enabled());
  // Build a paced connection on an identical link.
  Simulator sim;
  Link link(sim, 8e6, 0.005, 1000000);
  ConnectionConfig paced_config;
  paced_config.algorithm = CcAlgorithm::kReno;
  paced_config.pacing = true;
  paced_config.mss_bytes = 1000;
  paced_config.header_bytes = 40;
  paced_config.reverse_delay = 0.005;
  TcpConnection conn(sim, paced_config,
                     [&link](const Packet& p) { link.send(p); });
  link.set_sink([&conn](const Packet& p) { conn.on_data_at_receiver(p); });
  conn.start();
  sim.run_until(3.0);
  EXPECT_TRUE(conn.pacing_enabled());
  EXPECT_GT(conn.stats().bytes_acked * 8.0 / 3.0, 0.7 * 8e6);
  // The queue never needs to hold a full window when paced.
  EXPECT_LT(link.queue().max_bytes_seen(), 1000000u);
}

TEST(Connection, StretchAcksStillDeliverFullRate) {
  Simulator sim;
  Link link(sim, 8e6, 0.005, 1000000);
  ConnectionConfig config;
  config.algorithm = CcAlgorithm::kReno;
  config.mss_bytes = 1000;
  config.header_bytes = 40;
  config.reverse_delay = 0.005;
  config.ack_every = 8;
  TcpConnection conn(sim, config,
                     [&link](const Packet& p) { link.send(p); });
  link.set_sink([&conn](const Packet& p) { conn.on_data_at_receiver(p); });
  conn.start();
  sim.run_until(5.0);
  EXPECT_GT(conn.stats().bytes_acked * 8.0 / 5.0, 0.8 * 8e6);
  EXPECT_EQ(conn.stats().timeouts, 0u);
}

TEST(Connection, ResetStatsClearsCounters) {
  ConnWorld world(CcAlgorithm::kReno);
  world.conn->start();
  world.sim.run_until(1.0);
  EXPECT_GT(world.conn->stats().bytes_acked, 0u);
  world.conn->reset_stats();
  EXPECT_EQ(world.conn->stats().bytes_acked, 0u);
  world.sim.run_until(2.0);
  EXPECT_GT(world.conn->stats().bytes_acked, 0u);
}

}  // namespace
}  // namespace xp::sim
