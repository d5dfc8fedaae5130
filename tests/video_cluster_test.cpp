// Paired-link cluster hot path: pre/post-refactor invariants of
// run_paired_links (record conservation, series shapes, finite telemetry),
// thread-count bit-identity of the paired_links/* scenarios through the
// registry, the allocation-free water-filling fast path, and the
// geometric stall skip-sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "lab/experiment.h"
#include "lab/registry.h"
#include "stats/rng.h"
#include "util/runner.h"
#include "video/cluster.h"
#include "video/fluid_link.h"
#include "video/policy.h"
#include "video/session_pool.h"

namespace xp {
namespace {

bool all_finite(const video::SessionRecord& r) {
  for (double v :
       {r.start_time, r.duration, r.avg_throughput_bps, r.min_rtt,
        r.mean_rtt, r.retransmit_fraction, r.bytes_sent, r.play_delay,
        r.avg_bitrate_bps, r.perceptual_quality, r.rebuffer_seconds,
        r.stability}) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

TEST(PairedLinksInvariants, EveryStartedSessionYieldsExactlyOneRecord) {
  video::ClusterConfig config;
  config.days = 0.25;  // covers the overnight trough and the morning ramp
  config.seed = 9001;
  const video::ClusterResult result = video::run_paired_links(config);

  ASSERT_GT(result.stats.sessions_started, 100u);
  // Conservation: every started session is either completed (retired
  // mid-run) or flushed at the horizon — exactly one record each.
  EXPECT_EQ(result.sessions.size(), result.stats.sessions_started);
  EXPECT_LE(result.stats.sessions_completed, result.stats.sessions_started);
  const std::uint64_t flushed =
      result.stats.sessions_started - result.stats.sessions_completed;
  EXPECT_EQ(result.sessions.size(),
            result.stats.sessions_completed + flushed);

  // Record ids are unique and dense (1..n, in some order).
  std::vector<bool> seen(result.sessions.size() + 1, false);
  for (const auto& row : result.sessions) {
    ASSERT_GE(row.session_id, 1u);
    ASSERT_LE(row.session_id, result.sessions.size());
    EXPECT_FALSE(seen[row.session_id]) << "duplicate id " << row.session_id;
    seen[row.session_id] = true;
  }
}

TEST(PairedLinksInvariants, HourlySeriesSpanTheHorizonOnBothLinks) {
  video::ClusterConfig config;
  config.days = 0.25;
  config.seed = 9001;
  const video::ClusterResult result = video::run_paired_links(config);

  const auto expected_hours =
      static_cast<std::size_t>(config.days * 86400.0 / 3600.0) + 1;
  for (int l = 0; l < 2; ++l) {
    EXPECT_EQ(result.hourly_utilization[l].size(), expected_hours);
    EXPECT_EQ(result.hourly_rtt[l].size(), expected_hours);
    for (std::size_t h = 0; h < expected_hours; ++h) {
      EXPECT_TRUE(std::isfinite(result.hourly_utilization[l][h]));
      EXPECT_TRUE(std::isfinite(result.hourly_rtt[l][h]));
      EXPECT_GE(result.hourly_utilization[l][h], 0.0);
      EXPECT_LE(result.hourly_utilization[l][h], 1.0 + 1e-9);
    }
  }
}

TEST(PairedLinksInvariants, NoNaNsAndSaneRangesInEveryRecord) {
  video::ClusterConfig config;
  config.days = 0.25;
  config.seed = 77;
  const video::ClusterResult result = video::run_paired_links(config);
  ASSERT_FALSE(result.sessions.empty());
  for (const auto& row : result.sessions) {
    ASSERT_TRUE(all_finite(row)) << "session " << row.session_id;
    EXPECT_GE(row.duration, 0.0);
    EXPECT_GE(row.bytes_sent, 0.0);
    EXPECT_GE(row.retransmit_fraction, 0.0);
    EXPECT_LE(row.retransmit_fraction, 1.0);
    EXPECT_GE(row.min_rtt, 0.0);
    EXPECT_LE(row.min_rtt, row.mean_rtt + 1e-12);
    EXPECT_LE(row.link, 1);
    EXPECT_GE(row.stability, 0.0);
    EXPECT_LE(row.stability, 1.0);
    EXPECT_LE(row.perceptual_quality, 100.0);
    EXPECT_TRUE(row.had_rebuffer == (row.rebuffer_count > 0));
  }
}

TEST(PairedLinksRegistry, ScenariosAreBitIdenticalAcrossThreadCounts) {
  // The determinism contract in its real form: a registry run is a pure
  // function of (config, seed) — bit-for-bit identical at 1 vs 4 threads
  // (the RNG draw order *inside* one run is not pinned across refactors,
  // which is why these are fresh-world comparisons, not golden values).
  // The policy-backed scenario keys ride the same contract: table
  // dispatch must not introduce any thread-count dependence.
  util::Runner serial(1);
  util::Runner pool(4);
  for (const char* name :
       {"paired_links/experiment", "paired_links/baseline",
        "paired_links/cap_50", "paired_links/drop_top",
        "paired_links/abr_swap", "paired_links/bba_vs_rate"}) {
    SCOPED_TRACE(name);
    lab::ExperimentSpec spec;
    spec.scenario = name;
    spec.tuning.duration_scale = 0.04;
    spec.replicates = 2;
    spec.seed = 321;

    const auto report1 = lab::run_experiment(spec, serial);
    const auto reportN = lab::run_experiment(spec, pool);

    ASSERT_EQ(report1.cells.size(), reportN.cells.size());
    for (std::size_t c = 0; c < report1.cells.size(); ++c) {
      const lab::ObservationTable& a = report1.cells[c].table;
      const lab::ObservationTable& b = reportN.cells[c].table;
      ASSERT_EQ(a.metrics, b.metrics);
      ASSERT_EQ(a.columns.size(), b.columns.size());
      for (std::size_t col = 0; col < a.columns.size(); ++col) {
        ASSERT_EQ(a.columns[col].size(), b.columns[col].size());
        for (std::size_t r = 0; r < a.columns[col].size(); ++r) {
          // Bit-for-bit, not approximately.
          ASSERT_EQ(a.columns[col][r].outcome, b.columns[col][r].outcome);
          ASSERT_EQ(a.columns[col][r].unit, b.columns[col][r].unit);
          ASSERT_EQ(a.columns[col][r].treated, b.columns[col][r].treated);
        }
      }
      ASSERT_EQ(a.aggregates, b.aggregates);
      ASSERT_EQ(a.series, b.series);
    }
  }
}

TEST(WaterFilling, PresummedMatchesReferenceWaterFill) {
  // The allocation-free fast path (zero skip, undersubscribed shortcut,
  // iterative level refinement) must agree with a straightforward sorted
  // water-fill on arbitrary demand mixes.
  stats::Rng rng(5);
  std::vector<double> scratch;
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t n = 1 + rng.uniform_int(40);
    std::vector<double> demands(n);
    for (auto& d : demands) {
      const double u = rng.uniform();
      d = u < 0.3 ? 0.0 : rng.uniform(0.0, 10.0);  // mix in idle sessions
    }
    const double capacity = rng.uniform(0.5, 60.0);

    // Reference: sorted water-fill, sequential fair shares.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return demands[a] < demands[b];
    });
    std::vector<double> expected(n, 0.0);
    double remaining = capacity;
    std::size_t left = n;
    for (std::size_t i : order) {
      const double fair = remaining / static_cast<double>(left);
      const double grant = std::min(std::max(demands[i], 0.0), fair);
      expected[i] = grant;
      remaining -= grant;
      --left;
    }

    double positive_sum = 0.0;
    std::size_t positive = 0;
    for (double d : demands) {
      positive_sum += std::max(d, 0.0);
      positive += d > 0.0 ? 1 : 0;
    }
    std::vector<double> alloc(n);
    const double delivered = video::max_min_fair_allocation_presummed(
        demands, positive_sum, positive, capacity, alloc, scratch);
    double expected_total = 0.0, total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(alloc[i], expected[i], 1e-9 * (1.0 + expected[i]));
      EXPECT_LE(alloc[i], std::max(demands[i], 0.0) + 1e-9);
      expected_total += expected[i];
      total += alloc[i];
    }
    EXPECT_NEAR(total, expected_total, 1e-6);
    EXPECT_NEAR(delivered, total, 1e-6);
    EXPECT_LE(total, capacity + 1e-6);
  }
}

TEST(StallSampler, SkipSamplingMatchesBernoulliRate) {
  // Geometric gaps must reproduce the per-trial firing rate p within
  // binomial noise.
  const double p = 0.004;
  const std::size_t trials = 400000;
  video::StallSampler sampler(p, /*seed=*/99);
  ASSERT_TRUE(sampler.enabled());
  std::size_t fires = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    if (sampler.step()) {
      ++fires;
      const double s = sampler.draw_stall_seconds();
      EXPECT_GE(s, 0.5);
      EXPECT_LE(s, 3.0);
    }
  }
  const double expected = p * static_cast<double>(trials);
  const double sigma = std::sqrt(expected * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(fires), expected, 5.0 * sigma);
}

TEST(StallSampler, StepBlockBitCompatibleWithStep) {
  // The pool's stall pass consumes trials a block at a time; the fired
  // trial indices and the stall-duration stream must be exactly what
  // stepping one trial at a time produces.
  const double p = 0.01;
  video::StallSampler stepped(p, /*seed=*/1234);
  video::StallSampler blocked(p, /*seed=*/1234);
  std::vector<std::uint64_t> fires_stepped, fires_blocked;
  std::vector<double> stalls_stepped, stalls_blocked;
  const std::uint64_t trials = 50000;
  for (std::uint64_t t = 0; t < trials; ++t) {
    if (stepped.step()) {
      fires_stepped.push_back(t);
      stalls_stepped.push_back(stepped.draw_stall_seconds());
    }
  }
  // Deterministically irregular chunk sizes (including zero-size blocks)
  // so the block boundaries land on every phase of the gap stream.
  std::uint64_t consumed = 0;
  stats::Rng chunks(5);
  while (consumed < trials) {
    const std::uint64_t chunk =
        std::min(trials - consumed, chunks.uniform_int(700));
    blocked.step_block(chunk, [&](std::uint64_t k) {
      fires_blocked.push_back(consumed + k);
      stalls_blocked.push_back(blocked.draw_stall_seconds());
    });
    consumed += chunk;
  }
  EXPECT_EQ(fires_stepped, fires_blocked);
  EXPECT_EQ(stalls_stepped, stalls_blocked);
}

TEST(StallSampler, StepBlockOnBatchedStreamMatchesBernoulliRate) {
  // The calibration mirror of SkipSamplingMatchesBernoulliRate, driven
  // through the batched entry point the pool actually uses: geometric
  // gaps served off the BatchedRng stream must still reproduce the
  // per-trial firing rate within binomial noise.
  const double p = 0.004;
  const std::uint64_t trials = 400000;
  video::StallSampler sampler(p, /*seed=*/99);
  ASSERT_TRUE(sampler.enabled());
  std::size_t fires = 0;
  std::uint64_t consumed = 0;
  while (consumed < trials) {
    const std::uint64_t chunk = std::min<std::uint64_t>(trials - consumed,
                                                        1000);
    sampler.step_block(chunk, [&](std::uint64_t k) {
      EXPECT_LT(k, chunk);
      ++fires;
      const double s = sampler.draw_stall_seconds();
      EXPECT_GE(s, 0.5);
      EXPECT_LE(s, 3.0);
    });
    consumed += chunk;
  }
  const double expected = p * static_cast<double>(trials);
  const double sigma = std::sqrt(expected * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(fires), expected, 5.0 * sigma);
}

TEST(StallSampler, DisabledAtZeroRateAndCertainAtOne) {
  video::StallSampler off(0.0, 1);
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(off.step());

  video::StallSampler always(1.0, 1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(always.step());
}

TEST(PolicyRegistry, UnknownPolicyKeyListsAlternatives) {
  try {
    video::make_policy("no_such_policy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown policy"), std::string::npos) << message;
    EXPECT_NE(message.find("no_such_policy"), std::string::npos) << message;
    // The error lists the fixed-name policies and the parameterized
    // families, so the fix is obvious.
    for (const char* alternative :
         {"control", "bba", "rate", "cap/<fraction>", "drop_top/<rungs>"}) {
      EXPECT_NE(message.find(alternative), std::string::npos)
          << "missing \"" << alternative << "\" in: " << message;
    }
  }
}

TEST(PolicyRegistry, ListsBuiltinsAndAcceptsCustomRegistration) {
  const auto names = video::policy_names();
  for (const char* expected : {"control", "bba", "rate"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing policy: " << expected;
  }

  video::TreatmentPolicy custom;
  custom.name = "test_custom_cap_80";
  custom.ladder.kind = video::LadderPolicy::Kind::kCapFraction;
  custom.ladder.cap_fraction = 0.8;
  video::register_policy(custom);
  EXPECT_EQ(video::make_policy("test_custom_cap_80").ladder.cap_fraction,
            0.8);
  EXPECT_THROW(video::register_policy(custom), std::invalid_argument);
  // Names shadowing a parameterized family are rejected outright.
  custom.name = "cap/0.9";
  EXPECT_THROW(video::register_policy(custom), std::invalid_argument);
}

TEST(PolicyRegistry, ParameterizedFamiliesParseAndValidate) {
  const video::TreatmentPolicy cap = video::make_policy("cap/0.5");
  EXPECT_EQ(cap.ladder.kind, video::LadderPolicy::Kind::kCapFraction);
  EXPECT_DOUBLE_EQ(cap.ladder.cap_fraction, 0.5);

  const video::TreatmentPolicy drop = video::make_policy("drop_top/2");
  EXPECT_EQ(drop.ladder.kind, video::LadderPolicy::Kind::kDropTop);
  EXPECT_EQ(drop.ladder.drop_rungs, 2u);

  EXPECT_THROW(video::make_policy("cap/1.5"), std::invalid_argument);
  EXPECT_THROW(video::make_policy("cap/0"), std::invalid_argument);
  EXPECT_THROW(video::make_policy("cap/abc"), std::invalid_argument);
  EXPECT_THROW(video::make_policy("drop_top/0"), std::invalid_argument);
  EXPECT_THROW(video::make_policy("drop_top/x"), std::invalid_argument);
}

TEST(PolicyLadders, TransformsMatchTheirContracts) {
  const video::BitrateLadder& base = video::BitrateLadder::shared_standard();
  const double ceiling = 16000e3;

  // Identity reproduces the device ladder; cap/<f> reproduces the
  // pre-policy arithmetic base.capped(ceiling * f) exactly.
  const auto control = video::make_policy("control");
  EXPECT_EQ(control.ladder.apply(base, ceiling).rungs().size(),
            base.capped(ceiling).rungs().size());
  const auto cap = video::make_policy("cap/0.5");
  const video::BitrateLadder capped = cap.ladder.apply(base, ceiling);
  EXPECT_DOUBLE_EQ(capped.highest(),
                   base.capped(ceiling * 0.5).highest());
  EXPECT_LE(capped.highest(), ceiling * 0.5);

  // drop_top removes exactly k rungs and never empties the ladder.
  const auto drop2 = video::make_policy("drop_top/2");
  const video::BitrateLadder dropped = drop2.ladder.apply(base, ceiling);
  EXPECT_EQ(dropped.size(), base.capped(ceiling).size() - 2);
  EXPECT_DOUBLE_EQ(dropped.lowest(), base.lowest());
  const auto drop_all = video::make_policy("drop_top/99");
  EXPECT_EQ(drop_all.ladder.apply(base, ceiling).size(), 1u);
}

TEST(ClusterValidation, BadFieldsAreNamedInTheError) {
  const auto expect_rejects = [](video::ClusterConfig config,
                                 const char* field) {
    try {
      video::validate(config);
      FAIL() << "expected rejection naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };

  video::ClusterConfig bad_devices;
  bad_devices.devices.mobile_fraction = 0.6;  // 0.6 + 0.4 + 0.2 != 1
  expect_rejects(bad_devices, "devices");

  // A cap fraction is a policy parameter: run_paired_links rejects one
  // outside (0, 1] when it resolves the policy name, before simulating.
  for (const char* policy : {"cap/0", "cap/1.5"}) {
    video::ClusterConfig bad_cap;
    bad_cap.treatment_policy = policy;
    try {
      video::run_paired_links(bad_cap);
      FAIL() << "expected rejection of " << policy;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("cap fraction"), std::string::npos)
          << e.what();
    }
  }

  video::ClusterConfig bad_treat;
  bad_treat.treat_probability[1] = 1.2;
  expect_rejects(bad_treat, "treat_probability[1]");

  video::ClusterConfig bad_link0;
  bad_link0.link0_probability = -0.1;
  expect_rejects(bad_link0, "link0_probability");

  video::ClusterConfig bad_horizon;
  bad_horizon.days = 0.0;
  expect_rejects(bad_horizon, "days");

  // The hybrid ABR map divides by the cushion: a zero cushion at the
  // reservoir is 0/0, and a NaN rung index is undefined behaviour.
  for (const double reservoir :
       {-1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    video::ClusterConfig bad_reservoir;
    bad_reservoir.abr.reservoir_seconds = reservoir;
    expect_rejects(bad_reservoir, "abr.reservoir_seconds");
  }
  for (const double cushion :
       {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    video::ClusterConfig bad_cushion;
    bad_cushion.abr.cushion_seconds = cushion;
    expect_rejects(bad_cushion, "abr.cushion_seconds");
  }
  for (const double startup :
       {0.0, -1e6, std::numeric_limits<double>::quiet_NaN()}) {
    video::ClusterConfig bad_startup;
    bad_startup.abr.startup_bitrate = startup;
    expect_rejects(bad_startup, "abr.startup_bitrate");
  }
  video::ClusterConfig no_reservoir;
  no_reservoir.abr.reservoir_seconds = 0.0;
  EXPECT_NO_THROW(video::validate(no_reservoir));

  EXPECT_NO_THROW(video::validate(video::ClusterConfig{}));
}

TEST(ClusterPolicies, UnknownPolicyNameFailsBeforeSimulating) {
  video::ClusterConfig config;
  config.days = 1.0;
  config.treatment_policy = "no_such_policy";
  EXPECT_THROW(video::run_paired_links(config), std::invalid_argument);
}

TEST(ClusterPolicies, AbrSwapWorldRunsAndDiffersFromCapping) {
  // Same seed, two treatments: rate-based-ABR treatment vs fractional
  // capping. Both must produce full, sane worlds, and they must differ —
  // the policy layer actually changes the data-generating process.
  video::ClusterConfig cap_config;
  cap_config.days = 0.1;
  cap_config.seed = 404;
  const auto cap_world = video::run_paired_links(cap_config);

  video::ClusterConfig swap_config = cap_config;
  swap_config.treatment_policy = "rate";
  const auto swap_world = video::run_paired_links(swap_config);

  ASSERT_GT(cap_world.sessions.size(), 100u);
  // Arrival/assignment draws are policy-independent, so the worlds pair.
  ASSERT_EQ(swap_world.sessions.size(), cap_world.sessions.size());
  for (const auto& row : swap_world.sessions) {
    ASSERT_TRUE(all_finite(row)) << "session " << row.session_id;
  }
  bool any_difference = false;
  for (std::size_t i = 0; i < cap_world.sessions.size(); ++i) {
    any_difference |= cap_world.sessions[i].avg_bitrate_bps !=
                      swap_world.sessions[i].avg_bitrate_bps;
  }
  EXPECT_TRUE(any_difference)
      << "treatment policy had no effect on the realized world";
}

TEST(SessionPool, PolicyTableDispatchesPerSlot) {
  // One pool, two policies: hybrid and rate-based, identical grants. The
  // hybrid slot fills its buffer and climbs to the ladder top; the rate
  // slot is pinned at the highest rung under safety x smoothed
  // throughput (0.04 x 50 Mb/s = 2 Mb/s -> the 1750 kb/s rung). Same
  // inputs, different outcomes: the per-slot table dispatch is live.
  const video::BitrateLadder& ladder = video::BitrateLadder::shared_standard();
  std::vector<video::AbrPolicy> policies(2);
  policies[0].kind = video::AbrKind::kHybrid;
  policies[1].kind = video::AbrKind::kRate;
  policies[1].rate_safety = 0.04;
  policies[1].rate_tau_seconds = 2.0;
  video::SessionPool pool{video::SessionParams{}, policies};
  for (std::uint8_t p = 0; p < 2; ++p) {
    video::SessionPool::Arrival a;
    a.id = p + 1;
    a.account = p + 1;
    a.duration = 3600.0;
    a.ladder = &ladder;
    a.patience = 30.0;
    a.access_rate_bps = 50e6;
    a.policy = p;
    pool.add(a);
  }
  // Grant both slots their full 50 Mb/s access rate, long enough for
  // full buffers and a settled EWMA.
  std::vector<double> demands, alloc;
  video::SessionPool::DemandTotals totals;
  std::vector<video::SessionRecord> records;
  std::uint64_t completed = 0;
  for (int tick = 0; tick < 240; ++tick) {
    pool.gather_demand(demands, totals);
    alloc.assign(pool.size(), 50e6);
    pool.advance_all(1.0, alloc, 0.03, 0.0);
    pool.retire_finished(
        [&](const video::SessionRecord& r) { records.push_back(r); },
        completed);
  }
  ASSERT_EQ(pool.size(), 2u);
  // Hybrid: the buffer hovers one playback tick under its ceiling (fill,
  // clamp, play dt), which maps to the second-highest rung.
  EXPECT_DOUBLE_EQ(pool.current_bitrate(0), 11600e3);
  EXPECT_GT(pool.buffer_seconds(0), 50.0);
  // Rate-based: highest rung <= 0.04 x 50 Mb/s = 2 Mb/s -> 1750 kb/s.
  EXPECT_DOUBLE_EQ(pool.current_bitrate(1), 1750e3);
}

TEST(SessionPool, SlotRecyclingPreservesSurvivorState) {
  // Retiring a middle slot swap-moves the back slot in; the survivor's
  // telemetry must ride along intact.
  const video::BitrateLadder& ladder = video::BitrateLadder::shared_standard();
  video::SessionPool pool{
      video::SessionParams{},
      {video::AbrPolicy{video::AbrKind::kHybrid, video::AbrConfig{}}}};
  auto arrival = [&](std::uint64_t id, double duration) {
    video::SessionPool::Arrival a;
    a.id = id;
    a.account = id;
    a.duration = duration;
    a.ladder = &ladder;
    a.patience = 30.0;
    a.access_rate_bps = 50e6;
    return a;
  };
  pool.add(arrival(1, 20.0));   // finishes quickly
  pool.add(arrival(2, 3600.0));  // long-lived survivor
  std::vector<double> demands, alloc(2, 30e6);
  video::SessionPool::DemandTotals totals;
  std::vector<video::SessionRecord> records;
  std::uint64_t completed = 0;
  for (int tick = 0; tick < 40; ++tick) {
    pool.gather_demand(demands, totals);
    EXPECT_LE(totals.demand_positive, pool.size());
    alloc.assign(pool.size(), 30e6);
    pool.advance_all(1.0, alloc, 0.03, 0.0);
    pool.retire_finished(
        [&](const video::SessionRecord& r) { records.push_back(r); },
        completed);
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].session_id, 1u);
  EXPECT_EQ(completed, 1u);
  ASSERT_EQ(pool.size(), 1u);
  const video::SessionRecord survivor = pool.finalize(0);
  EXPECT_EQ(survivor.session_id, 2u);
  EXPECT_NEAR(survivor.duration, 40.0, 5.0);  // still playing
  EXPECT_TRUE(all_finite(survivor));
}

}  // namespace
}  // namespace xp
