// Video substrate: ladders, ABR strategies, fluid link, demand, session
// state machine.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "stats/rng.h"
#include "video/abr.h"
#include "video/bitrate.h"
#include "video/demand.h"
#include "video/fluid_link.h"
#include "video/session_pool.h"

namespace xp::video {
namespace {

TEST(BitrateLadder, StandardIsAscending) {
  const auto ladder = BitrateLadder::standard();
  EXPECT_GE(ladder.size(), 10u);
  EXPECT_DOUBLE_EQ(ladder.lowest(), 235e3);
  EXPECT_DOUBLE_EQ(ladder.highest(), 16000e3);
}

TEST(BitrateLadder, CappedTruncates) {
  const auto capped = BitrateLadder::standard().capped(2350e3);
  EXPECT_DOUBLE_EQ(capped.highest(), 2350e3);
  EXPECT_DOUBLE_EQ(capped.lowest(), 235e3);
  const auto floor = BitrateLadder::standard().capped(1.0);
  EXPECT_EQ(floor.size(), 1u);
}

TEST(BitrateLadder, RejectsBadLadders) {
  EXPECT_THROW(BitrateLadder({}), std::invalid_argument);
  EXPECT_THROW(BitrateLadder({2.0, 1.0}), std::invalid_argument);
}

TEST(PerceptualQuality, MonotoneAndBounded) {
  double prev = -1.0;
  for (double rate : {100e3, 235e3, 1e6, 4e6, 16e6, 50e6}) {
    const double q = perceptual_quality(rate);
    EXPECT_GT(q, prev);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 100.0);
    prev = q;
  }
  EXPECT_DOUBLE_EQ(perceptual_quality(0.0), 0.0);
}

// The ABR strategies pick a rung index over a flattened ladder; these
// read the picked rung back as rungs[k].
TEST(Abr, ReservoirStreamsLowest) {
  const auto ladder = BitrateLadder::standard();
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  EXPECT_DOUBLE_EQ(rungs[abr_select_index_rungs(top, AbrConfig{}, 0.0)],
                   235e3);
  EXPECT_DOUBLE_EQ(rungs[abr_select_index_rungs(top, AbrConfig{}, 9.9)],
                   235e3);
}

TEST(Abr, TopOfCushionStreamsHighest) {
  const auto ladder = BitrateLadder::standard();
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  EXPECT_DOUBLE_EQ(rungs[abr_select_index_rungs(top, AbrConfig{}, 60.0)],
                   16000e3);
  EXPECT_DOUBLE_EQ(rungs[abr_select_index_rungs(top, AbrConfig{}, 300.0)],
                   16000e3);
}

TEST(Abr, MonotoneInBuffer) {
  const auto ladder = BitrateLadder::standard();
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  double prev = 0.0;
  for (double buffer = 0.0; buffer <= 70.0; buffer += 2.0) {
    const double rate = rungs[abr_select_index_rungs(top, AbrConfig{}, buffer)];
    EXPECT_GE(rate, prev);
    prev = rate;
  }
}

TEST(Abr, CappedLadderNeverExceedsCap) {
  const auto ladder = BitrateLadder::standard().capped(3000e3);
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  for (double buffer = 0.0; buffer <= 100.0; buffer += 5.0) {
    EXPECT_LE(rungs[abr_select_index_rungs(top, AbrConfig{}, buffer)],
              3000e3);
  }
}

TEST(Abr, RungThresholdsAreExact) {
  // Every threshold is the first double that reaches its rung, over
  // reservoirs (zero included), cushions that no double holds exactly,
  // and every ladder size up to the standard one.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  stats::Rng rng(2024);
  for (const double reservoir : {0.0, 3.3, 10.0, 17.7}) {
    for (const double cushion : {1e-3, 0.1, 7.3, 50.0 / 3.0, 50.0}) {
      AbrConfig config;
      config.reservoir_seconds = reservoir;
      config.cushion_seconds = cushion;
      for (std::size_t top = 0; top <= 12; ++top) {
        const double top_index = static_cast<double>(top);
        const auto index = [&](double buffer) {
          return abr_select_index_rungs(top_index, config, buffer);
        };
        const std::vector<double> theta =
            abr_rung_thresholds(top_index, config);
        ASSERT_EQ(theta.size(), top + 2);
        EXPECT_EQ(theta[0], -kInf);
        EXPECT_EQ(theta[top + 1], kInf);
        for (std::size_t k = 1; k <= top; ++k) {
          EXPECT_GE(index(theta[k]), k) << "k " << k;
          EXPECT_LT(index(std::nextafter(theta[k], -kInf)), k) << "k " << k;
          EXPECT_LE(theta[k - 1], theta[k]);
        }
        // The interval lookup the pool caches equals the map itself.
        const auto lookup = [&](double buffer) {
          std::size_t k = 0;
          while (k < top && theta[k + 1] <= buffer) ++k;
          return k;
        };
        for (int draw = 0; draw < 200; ++draw) {
          const double buffer =
              rng.uniform(0.0, reservoir + 1.25 * cushion + 1.0);
          EXPECT_EQ(lookup(buffer), index(buffer)) << "buffer " << buffer;
        }
        for (std::size_t k = 1; k <= top; ++k) {
          for (const double buffer :
               {std::nextafter(theta[k], -kInf), theta[k],
                std::nextafter(theta[k], kInf)}) {
            EXPECT_EQ(lookup(buffer), index(buffer)) << "buffer " << buffer;
          }
        }
      }
    }
  }
}

TEST(Abr, RungIndexAtMostFloorsAndCeils) {
  const auto ladder = BitrateLadder::standard();
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  EXPECT_DOUBLE_EQ(rungs[rung_index_at_most(rungs, top, 100e3)], 235e3);
  EXPECT_DOUBLE_EQ(rungs[rung_index_at_most(rungs, top, 3100e3)], 3000e3);
  EXPECT_DOUBLE_EQ(rungs[rung_index_at_most(rungs, top, 3000e3)], 3000e3);
  EXPECT_DOUBLE_EQ(rungs[rung_index_at_most(rungs, top, 1e9)], 16000e3);
}

TEST(Abr, BbaSelectIsMonotoneAndRateLinear) {
  const auto ladder = BitrateLadder::standard();
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  const AbrConfig config;
  auto bba = [&](double buffer) {
    return rungs[bba_select_index_rungs(rungs, top, config, buffer)];
  };
  // Reservoir and full-cushion endpoints match the hybrid map...
  EXPECT_DOUBLE_EQ(bba(5.0), 235e3);
  EXPECT_DOUBLE_EQ(bba(60.0), 16000e3);
  // ...but mid-cushion BBA maps linearly in *rate*: on the roughly
  // geometric ladder that sits well above the index interpolation
  // (half the rate range lands among the top rungs).
  EXPECT_GT(bba(35.0), rungs[abr_select_index_rungs(top, config, 35.0)]);
  double prev = 0.0;
  for (double buffer = 0.0; buffer <= 70.0; buffer += 2.0) {
    EXPECT_GE(bba(buffer), prev);
    prev = bba(buffer);
  }
}

TEST(Abr, RateSelectTracksThroughput) {
  const auto ladder = BitrateLadder::standard();
  const double* rungs = ladder.rungs().data();
  const double top = static_cast<double>(ladder.size() - 1);
  EXPECT_DOUBLE_EQ(rungs[rate_select_index_rungs(rungs, top, 0.0)], 235e3);
  EXPECT_DOUBLE_EQ(rungs[rate_select_index_rungs(rungs, top, 2e6)], 1750e3);
  EXPECT_DOUBLE_EQ(rungs[rate_select_index_rungs(rungs, top, 50e6)],
                   16000e3);
}

TEST(Abr, StartupIsConfiguredRateUnderLadderTop) {
  EXPECT_DOUBLE_EQ(abr_startup(BitrateLadder::standard(), AbrConfig{}),
                   1050e3);
  EXPECT_DOUBLE_EQ(
      abr_startup(BitrateLadder::standard().capped(750e3), AbrConfig{}),
      750e3);
}

// Water-fill through the presummed allocator, summing the positive demands
// the way the session pool's gather pass does.
std::vector<double> water_fill(std::span<const double> demands,
                               double capacity) {
  double sum = 0.0;
  std::size_t count = 0;
  for (double d : demands) {
    if (d > 0.0) {
      sum += d;
      ++count;
    }
  }
  std::vector<double> alloc(demands.size()), scratch;
  max_min_fair_allocation_presummed(demands, sum, count, capacity, alloc,
                                    scratch);
  return alloc;
}

TEST(MaxMinFair, EqualSplitWhenOversubscribed) {
  const std::vector<double> demands{10.0, 10.0, 10.0, 10.0};
  const auto alloc = water_fill(demands, 20.0);
  for (double a : alloc) EXPECT_NEAR(a, 5.0, 1e-12);
}

TEST(MaxMinFair, SmallDemandsFullySatisfied) {
  const std::vector<double> demands{1.0, 2.0, 100.0};
  const auto alloc = water_fill(demands, 10.0);
  EXPECT_NEAR(alloc[0], 1.0, 1e-12);
  EXPECT_NEAR(alloc[1], 2.0, 1e-12);
  EXPECT_NEAR(alloc[2], 7.0, 1e-12);
}

TEST(MaxMinFair, NeverExceedsCapacityOrDemand) {
  xp::stats::Rng rng(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> demands(20);
    for (auto& d : demands) d = rng.uniform(0.0, 10.0);
    const double capacity = rng.uniform(1.0, 100.0);
    const auto alloc = water_fill(demands, capacity);
    double total = 0.0;
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      EXPECT_LE(alloc[i], demands[i] + 1e-9);
      total += alloc[i];
    }
    EXPECT_LE(total, capacity + 1e-6);
  }
}

TEST(MaxMinFair, EmptyAndZeroCapacity) {
  EXPECT_TRUE(water_fill({}, 10.0).empty());
  const auto alloc = water_fill(std::vector<double>{5.0}, 0.0);
  EXPECT_DOUBLE_EQ(alloc[0], 0.0);
}

// The link sees one session demanding `bps`: demand sum `bps`, one
// positive demand, desired load `bps`.
void offer(FluidLink& link, double bps, double dt) {
  const std::array<double, 1> demands{bps};
  std::vector<double> alloc;
  link.allocate_and_advance(demands, bps, bps, 1, dt, alloc);
}

TEST(FluidLink, QueueBuildsUnderSustainedOverload) {
  FluidLinkConfig config;
  config.capacity_bps = 1e9;
  FluidLink link(config);
  for (int i = 0; i < 1200; ++i) offer(link, 2e9, 1.0);  // 2x overload
  EXPECT_GT(link.queueing_delay(), 0.9 * config.buffer_seconds);
  EXPECT_GT(link.rtt(), config.base_rtt + 0.9 * config.buffer_seconds);
  EXPECT_GT(link.loss_fraction(), config.base_loss);
}

TEST(FluidLink, QueueDrainsWhenLoadRecedes) {
  FluidLinkConfig config;
  config.capacity_bps = 1e9;
  FluidLink link(config);
  for (int i = 0; i < 1200; ++i) offer(link, 3e9, 1.0);
  for (int i = 0; i < 1200; ++i) offer(link, 1e8, 1.0);
  EXPECT_LT(link.queueing_delay(), 0.02);
  EXPECT_NEAR(link.loss_fraction(), config.base_loss, 1e-4);
}

TEST(FluidLink, NoQueueBelowKnee) {
  FluidLinkConfig config;
  config.capacity_bps = 1e9;
  FluidLink link(config);
  for (int i = 0; i < 600; ++i) offer(link, 8e8, 1.0);
  EXPECT_NEAR(link.queueing_delay(), 0.0, 1e-6);
}

TEST(FluidLink, LossMonotoneInOccupancy) {
  FluidLinkConfig config;
  FluidLink link(config);
  double prev_loss = -1.0;
  for (int i = 0; i < 40; ++i) {
    offer(link, 5e9, 10.0);
    EXPECT_GE(link.loss_fraction(), prev_loss);
    prev_loss = link.loss_fraction();
  }
}

TEST(FluidLink, GrantsAreDemandsUnderCapacityAndFairOver) {
  FluidLinkConfig config;
  config.capacity_bps = 10.0;
  FluidLink link(config);
  std::vector<double> alloc;
  const std::vector<double> light{1.0, 0.0, 2.0};
  const auto under = link.allocate_and_advance(light, 3.0, 3.0, 2, 1.0, alloc);
  EXPECT_EQ(under.data(), light.data());  // undersubscribed: no copy
  const std::vector<double> heavy{1.0, 0.0, 100.0};
  const auto over = link.allocate_and_advance(heavy, 101.0, 101.0, 2, 1.0,
                                              alloc);
  ASSERT_EQ(over.size(), 3u);
  EXPECT_DOUBLE_EQ(over[0], 1.0);
  EXPECT_DOUBLE_EQ(over[1], 0.0);
  EXPECT_DOUBLE_EQ(over[2], 9.0);
  EXPECT_DOUBLE_EQ(link.last_utilization(), 1.0);
}

TEST(Demand, DiurnalShapePeaksInEvening) {
  DemandModel model{DemandConfig{}};
  const double peak = model.arrival_rate(20.0 * 3600.0);
  const double trough = model.arrival_rate(4.0 * 3600.0);
  EXPECT_GT(peak, 5.0 * trough);
}

TEST(Demand, WeekendUplift) {
  DemandModel model{DemandConfig{}};
  const double weekday = model.arrival_rate(2 * 86400.0 + 20.0 * 3600.0);
  const double weekend = model.arrival_rate(5 * 86400.0 + 20.0 * 3600.0);
  EXPECT_GT(weekend, weekday * 1.05);
}

TEST(Demand, DurationsWithinBounds) {
  DemandModel model{DemandConfig{}};
  xp::stats::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const double d = model.draw_duration(rng);
    EXPECT_GE(d, 120.0);
    EXPECT_LE(d, 4.0 * 3600.0);
  }
}

TEST(Demand, HourAndDayHelpers) {
  EXPECT_EQ(hour_of(0.0), 0u);
  EXPECT_EQ(hour_of(3600.0 * 25), 1u);
  EXPECT_EQ(day_of(86400.0 * 3 + 5), 3u);
}

// One session alone in a pool: hybrid ABR, a 30 Mb/s access rate and 30 s
// of startup patience, on the standard ladder capped at `ceiling`. Tests
// drive `pool` directly, granting slot 0 a rate per one-second tick.
struct OneSession {
  explicit OneSession(double ceiling = 16e6, double duration = 600.0)
      : ladder(BitrateLadder::standard().capped(ceiling)) {
    SessionPool::Arrival arrival;
    arrival.id = arrival.account = 1;
    arrival.duration = duration;
    arrival.ladder = &ladder;
    arrival.patience = 30.0;
    arrival.access_rate_bps = 30e6;
    pool.add(arrival);
  }
  BitrateLadder ladder;
  SessionPool pool{SessionParams{}, {AbrPolicy{AbrKind::kHybrid, AbrConfig{}}}};
};

TEST(Session, StartsInStartupAndBeginsPlaying) {
  OneSession s;
  EXPECT_EQ(s.pool.state(0), SessionState::kStartup);
  EXPECT_DOUBLE_EQ(s.pool.demand(0), 30e6);  // fetches at access speed
  // Grant a generous rate: startup completes in the first ticks.
  for (int i = 0; i < 5; ++i) {
    s.pool.advance_all(1.0, std::array{20e6}, 0.03, 0.0);
  }
  EXPECT_EQ(s.pool.state(0), SessionState::kPlaying);
  const SessionRecord r = s.pool.finalize(0);
  EXPECT_GT(r.play_delay, 0.0);
  EXPECT_LT(r.play_delay, 3.0);
}

TEST(Session, StarvedSessionCancels) {
  OneSession s;
  for (int i = 0; i < 120 && s.pool.state(0) != SessionState::kDone; ++i) {
    s.pool.advance_all(1.0, std::array{1e3}, 0.03, 0.0);  // hopeless
  }
  EXPECT_EQ(s.pool.state(0), SessionState::kDone);
  EXPECT_TRUE(s.pool.finalize(0).cancelled_start);
  EXPECT_DOUBLE_EQ(s.pool.demand(0), 0.0);
  EXPECT_DOUBLE_EQ(s.pool.sustained_load(0), 0.0);
}

TEST(Session, RebuffersWhenRateCollapses) {
  OneSession s;
  for (int i = 0; i < 30; ++i) {
    s.pool.advance_all(1.0, std::array{20e6}, 0.03, 0.0);
  }
  EXPECT_EQ(s.pool.state(0), SessionState::kPlaying);
  // Starve long enough to drain the buffer entirely.
  for (int i = 0; i < 120; ++i) {
    s.pool.advance_all(1.0, std::array{0.0}, 0.03, 0.0);
  }
  const SessionRecord r = s.pool.finalize(0);
  EXPECT_GE(r.rebuffer_count, 1u);
  EXPECT_TRUE(r.had_rebuffer);
  EXPECT_GT(r.rebuffer_seconds, 0.0);
}

TEST(Session, CompletesAfterDuration) {
  OneSession s(16e6, 120.0);
  for (int i = 0; i < 300 && s.pool.state(0) != SessionState::kDone; ++i) {
    s.pool.advance_all(1.0, std::array{20e6}, 0.03, 0.0);
  }
  EXPECT_EQ(s.pool.state(0), SessionState::kDone);
  const SessionRecord r = s.pool.finalize(0);
  EXPECT_FALSE(r.cancelled_start);
  EXPECT_NEAR(r.duration, 120.0, 2.0);
  EXPECT_GT(r.avg_bitrate_bps, 235e3);
}

TEST(Session, MinRttTracksLowestSeen) {
  OneSession s;
  for (double rtt : {0.050, 0.030, 0.200}) {
    s.pool.advance_all(1.0, std::array{20e6}, rtt, 0.0);
  }
  EXPECT_DOUBLE_EQ(s.pool.finalize(0).min_rtt, 0.030);
}

TEST(Session, LossShowsUpAsRetransmits) {
  OneSession s;
  for (int i = 0; i < 60; ++i) {
    s.pool.advance_all(1.0, std::array{10e6}, 0.03, 0.02);
  }
  const SessionRecord r = s.pool.finalize(0);
  EXPECT_GT(r.retransmit_fraction, 0.015);
  EXPECT_LT(r.retransmit_fraction, 0.05);
}

TEST(Session, CappedCeilingLimitsBitrate) {
  OneSession s(1750e3, 300.0);
  for (int i = 0; i < 400 && s.pool.state(0) != SessionState::kDone; ++i) {
    s.pool.advance_all(1.0, std::array{50e6}, 0.03, 0.0);
    EXPECT_LE(s.pool.current_bitrate(0), 1750e3);
  }
  EXPECT_LE(s.pool.finalize(0).avg_bitrate_bps, 1750e3 + 1.0);
}

TEST(Session, SpuriousRebufferInjection) {
  OneSession s;
  for (int i = 0; i < 20; ++i) {
    s.pool.advance_all(1.0, std::array{20e6}, 0.03, 0.0);
  }
  ASSERT_EQ(s.pool.state(0), SessionState::kPlaying);
  s.pool.inject_spurious_rebuffer(0, 1.5);
  const SessionRecord r = s.pool.finalize(0);
  EXPECT_EQ(r.rebuffer_count, 1u);
  EXPECT_DOUBLE_EQ(r.rebuffer_seconds, 1.5);
}

}  // namespace
}  // namespace xp::video
