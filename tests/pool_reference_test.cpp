// Reference-vs-fast-path equivalence for the partitioned SessionPool.
//
// The pool's tick is organized for speed: state-partitioned slot order,
// per-policy sub-batches, branch-free vectorized passes, cached per-rung
// quality scores. This test keeps an independent *reference*
// implementation in the pre-partition shape — one struct per session, a
// switch per slot, quality recomputed on every switch — and asserts the
// fast path produces bit-identical per-session demands and records on
// randomized configurations, the same way the water-fill allocator is
// checked against its sorted reference. Any restructuring of the pool
// passes that changes a single accumulator bit fails here by name.
//
// Spurious-stall thinning is exercised separately (the StallSampler
// step/step_block bit-compat test): its trial order is partitioned slot
// order by contract, which a pre-partition reference cannot reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "stats/rng.h"
#include "video/abr.h"
#include "video/bitrate.h"
#include "video/fluid_link.h"
#include "video/policy.h"
#include "video/session_pool.h"
#include "video/session_record.h"

namespace xp::video {
namespace {

/// One session, all fields inline — the pre-partition layout.
struct RefSession {
  std::uint64_t id = 0;
  std::uint64_t account = 0;
  std::uint8_t link = 0;
  bool treated = false;
  double start_time = 0.0;
  SessionState state = SessionState::kStartup;
  double clock = 0.0;
  double buffer = 0.0;
  double bitrate = 0.0;
  double quality = 0.0;
  double startup_bytes_left = 0.0;
  double played = 0.0;
  double duration = 0.0;
  double patience = 0.0;
  double access = 0.0;
  double sustained_cap = 0.0;
  const BitrateLadder* ladder = nullptr;
  std::uint8_t policy = 0;
  double ewma = 0.0;
  double delivered = 0.0;
  double retx = 0.0;
  double hungry_bytes = 0.0;
  double hungry_seconds = 0.0;
  double min_rtt = 1e9;
  double play_delay = 0.0;
  double rebuffer_seconds = 0.0;
  std::uint32_t rebuffer_count = 0;
  std::uint32_t switches = 0;
  bool cancelled = false;
  double rtt_sum_ref = 0.0;
  std::uint64_t rtt_ticks_ref = 0;
  double played_marker = 0.0;
  double bitrate_integral = 0.0;
  double quality_integral = 0.0;
};

/// Switch-per-slot reference pool: insertion order, no partition, no
/// caches — every formula written the straightforward way.
class ReferencePool {
 public:
  ReferencePool(const SessionParams& params, std::vector<AbrPolicy> policies)
      : params_(params), policies_(std::move(policies)) {}

  void add(const SessionPool::Arrival& a) {
    RefSession s;
    s.id = a.id;
    s.account = a.account;
    s.link = a.link;
    s.treated = a.treated;
    s.start_time = a.start_time;
    const AbrPolicy& policy = policies_.at(a.policy);
    s.bitrate = policy.kind == AbrKind::kBufferBased
                    ? a.ladder->lowest()
                    : abr_startup(*a.ladder, policy.config);
    s.quality = perceptual_quality(s.bitrate);
    s.startup_bytes_left = s.bitrate * params_.startup_chunk_seconds / 8.0;
    s.duration = a.duration;
    s.patience = a.patience;
    s.access = a.access_rate_bps;
    s.sustained_cap =
        std::min(a.access_rate_bps, a.ladder->highest() * 1.10);
    s.ladder = a.ladder;
    s.policy = a.policy;
    s.ewma = a.access_rate_bps;
    s.rtt_sum_ref = cum_rtt_sum_;
    s.rtt_ticks_ref = cum_rtt_ticks_;
    sessions_.push_back(s);
  }

  double demand(const RefSession& s) const {
    switch (s.state) {
      case SessionState::kStartup:
      case SessionState::kRebuffering:
        return s.access;
      case SessionState::kPlaying:
        return s.buffer + params_.chunk_seconds <= params_.max_buffer_seconds
                   ? s.access
                   : 0.0;
      case SessionState::kDone:
        return 0.0;
    }
    return 0.0;
  }

  const std::vector<RefSession>& sessions() const { return sessions_; }

  void advance_all(double dt, const std::vector<double>& grant_by_id,
                   double rtt, double loss) {
    cum_rtt_sum_ += rtt;
    ++cum_rtt_ticks_;
    for (RefSession& s : sessions_) {
      switch (s.state) {
        case SessionState::kPlaying:
          advance_playing(s, dt, grant_by_id[s.id], rtt, loss);
          break;
        case SessionState::kStartup:
          advance_startup(s, dt, grant_by_id[s.id], rtt, loss);
          break;
        case SessionState::kRebuffering:
          advance_rebuffering(s, dt, grant_by_id[s.id], rtt, loss);
          break;
        case SessionState::kDone:
          break;  // waits for retirement; no clock, no telemetry
      }
    }
  }

  void retire_finished(std::vector<SessionRecord>& out) {
    for (std::size_t i = 0; i < sessions_.size();) {
      if (sessions_[i].state == SessionState::kDone) {
        out.push_back(finalize(sessions_[i]));
        sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  void flush_all(std::vector<SessionRecord>& out) const {
    for (const RefSession& s : sessions_) out.push_back(finalize(s));
  }

 private:
  void shared_download_telemetry(RefSession& s, double dt, double rate,
                                 double loss, double& good) {
    // The startup/rebuffer download accounting (pool Phases F/G).
    if (rate > 0.0) {
      const double wire = rate * dt / 8.0;
      good = wire * (1.0 - loss);
      s.delivered += good;
      s.retx += wire * loss;
      s.hungry_bytes += wire;
      s.hungry_seconds += dt;
      if (policies_[s.policy].kind == AbrKind::kRate) {
        const double alpha =
            dt / (policies_[s.policy].rate_tau_seconds + dt);
        s.ewma += alpha * (rate - s.ewma);
      }
    }
  }

  void select_bitrate(RefSession& s) {
    const AbrPolicy& policy = policies_[s.policy];
    const double* rungs = s.ladder->rungs().data();
    const double top_index = static_cast<double>(s.ladder->size() - 1);
    std::size_t k;
    switch (policy.kind) {
      case AbrKind::kHybrid:
        k = abr_select_index_rungs(top_index, policy.config, s.buffer);
        break;
      case AbrKind::kBufferBased:
        k = bba_select_index_rungs(rungs, top_index, policy.config,
                                   s.buffer);
        break;
      case AbrKind::kRate:
        k = rate_select_index_rungs(rungs, top_index,
                                    policy.rate_safety * s.ewma);
        break;
      default:
        return;
    }
    const double next = rungs[k];
    if (next != s.bitrate) {
      ++s.switches;
      const double segment = s.played - s.played_marker;
      if (segment > 0.0) {
        s.bitrate_integral += s.bitrate * segment;
        s.quality_integral += s.quality * segment;
        s.played_marker = s.played;
      }
      s.bitrate = next;
      // The reference recomputes the score the pool serves from its
      // per-rung cache — the equality of the two is part of the test.
      s.quality = perceptual_quality(next);
    }
  }

  void advance_playing(RefSession& s, double dt, double rate, double rtt,
                       double loss) {
    s.clock += dt;
    s.min_rtt = std::min(s.min_rtt, rtt);
    const double wire = rate * dt / 8.0;
    const double good = wire * (1.0 - loss);
    s.delivered += good;
    s.retx += wire * loss;
    s.retx += params_.fixed_retx_bytes_per_play_second * dt;
    if (rate > 0.0 && s.buffer <= 0.5 * params_.max_buffer_seconds) {
      const double room =
          (params_.max_buffer_seconds - s.buffer + dt) * s.bitrate / 8.0;
      const double frac = std::min(std::max(room / good, 0.0), 1.0);
      s.hungry_bytes += wire * frac;
      s.hungry_seconds += dt * frac;
    }
    if (policies_[s.policy].kind == AbrKind::kRate && rate > 0.0) {
      const double alpha = dt / (policies_[s.policy].rate_tau_seconds + dt);
      s.ewma += alpha * (rate - s.ewma);
    }
    select_bitrate(s);
    double level = s.buffer + good * 8.0 / s.bitrate;
    level = std::min(level, params_.max_buffer_seconds);
    s.buffer = level - dt;
    s.played += dt;
    if (s.played >= s.duration) {
      s.state = SessionState::kDone;
      freeze_rtt(s);
    } else if (s.buffer <= 0.0) {
      s.buffer = 0.0;
      ++s.rebuffer_count;
      s.state = SessionState::kRebuffering;
      select_bitrate(s);
    }
  }

  void advance_startup(RefSession& s, double dt, double rate, double rtt,
                       double loss) {
    s.clock += dt;
    s.min_rtt = std::min(s.min_rtt, rtt);
    double good = 0.0;
    shared_download_telemetry(s, dt, rate, loss, good);
    const double before = s.startup_bytes_left;
    s.startup_bytes_left -= good;
    if (s.startup_bytes_left <= 0.0) {
      const double frac = good > 0.0 ? before / good : 1.0;
      s.play_delay =
          s.clock - dt + dt * std::min(frac, 1.0) + 2.0 * rtt;
      s.buffer = params_.startup_chunk_seconds;
      s.state = SessionState::kPlaying;
    } else if (s.clock >= s.patience) {
      s.play_delay = s.clock;
      s.cancelled = true;
      s.state = SessionState::kDone;
      freeze_rtt(s);
    }
  }

  void advance_rebuffering(RefSession& s, double dt, double rate,
                           double rtt, double loss) {
    s.clock += dt;
    s.min_rtt = std::min(s.min_rtt, rtt);
    double good = 0.0;
    shared_download_telemetry(s, dt, rate, loss, good);
    s.rebuffer_seconds += dt;
    s.buffer += good * 8.0 / s.bitrate;
    if (s.buffer >= params_.rebuffer_resume_seconds) {
      s.state = SessionState::kPlaying;
    }
  }

  void freeze_rtt(RefSession& s) {
    s.rtt_sum_ref = cum_rtt_sum_ - s.rtt_sum_ref;
    s.rtt_ticks_ref = cum_rtt_ticks_ - s.rtt_ticks_ref;
  }

  SessionRecord finalize(const RefSession& s) const {
    SessionRecord r;
    r.session_id = s.id;
    r.account_id = s.account;
    r.link = s.link;
    r.treated = s.treated;
    r.start_time = s.start_time;
    r.day = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(s.start_time) / 86400);
    r.hour = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(s.start_time) % 86400) / 3600);
    r.duration = s.played;
    if (s.hungry_seconds > 0.0) {
      r.avg_throughput_bps = s.hungry_bytes * 8.0 / s.hungry_seconds;
    } else if (s.clock > 0.0) {
      r.avg_throughput_bps = (s.delivered + s.retx) * 8.0 / s.clock;
    }
    r.min_rtt = s.min_rtt >= 1e9 ? 0.0 : s.min_rtt;
    const bool done = s.state == SessionState::kDone;
    const double rtt_sum =
        done ? s.rtt_sum_ref : cum_rtt_sum_ - s.rtt_sum_ref;
    const std::uint64_t rtt_ticks =
        done ? s.rtt_ticks_ref : cum_rtt_ticks_ - s.rtt_ticks_ref;
    r.mean_rtt =
        rtt_ticks == 0 ? 0.0 : rtt_sum / static_cast<double>(rtt_ticks);
    const double sent = s.delivered + s.retx;
    r.bytes_sent = sent;
    r.retransmit_fraction = sent > 0.0 ? s.retx / sent : 0.0;
    r.play_delay = s.play_delay;
    r.cancelled_start = s.cancelled;
    if (s.played > 0.0) {
      const double segment = s.played - s.played_marker;
      const double bitrate_integral =
          s.bitrate_integral + s.bitrate * segment;
      const double quality_integral =
          s.quality_integral + s.quality * segment;
      r.avg_bitrate_bps = bitrate_integral / s.played;
      r.perceptual_quality = quality_integral / s.played;
      r.stability = 1.0 / (1.0 + 60.0 * static_cast<double>(s.switches) /
                                     s.played);
    }
    r.rebuffer_count = s.rebuffer_count;
    r.rebuffer_seconds = s.rebuffer_seconds;
    r.had_rebuffer = s.rebuffer_count > 0;
    r.bitrate_switches = s.switches;
    return r;
  }

  SessionParams params_;
  std::vector<AbrPolicy> policies_;
  std::vector<RefSession> sessions_;
  double cum_rtt_sum_ = 0.0;
  std::uint64_t cum_rtt_ticks_ = 0;
};

void expect_records_equal(const SessionRecord& a, const SessionRecord& b) {
  EXPECT_EQ(a.session_id, b.session_id);
  EXPECT_EQ(a.account_id, b.account_id);
  EXPECT_EQ(a.link, b.link);
  EXPECT_EQ(a.treated, b.treated);
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.hour, b.hour);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.duration, b.duration) << "session " << a.session_id;
  EXPECT_EQ(a.avg_throughput_bps, b.avg_throughput_bps)
      << "session " << a.session_id;
  EXPECT_EQ(a.min_rtt, b.min_rtt) << "session " << a.session_id;
  EXPECT_EQ(a.mean_rtt, b.mean_rtt) << "session " << a.session_id;
  EXPECT_EQ(a.retransmit_fraction, b.retransmit_fraction)
      << "session " << a.session_id;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "session " << a.session_id;
  EXPECT_EQ(a.play_delay, b.play_delay) << "session " << a.session_id;
  EXPECT_EQ(a.cancelled_start, b.cancelled_start)
      << "session " << a.session_id;
  EXPECT_EQ(a.avg_bitrate_bps, b.avg_bitrate_bps)
      << "session " << a.session_id;
  EXPECT_EQ(a.perceptual_quality, b.perceptual_quality)
      << "session " << a.session_id;
  EXPECT_EQ(a.rebuffer_count, b.rebuffer_count)
      << "session " << a.session_id;
  EXPECT_EQ(a.rebuffer_seconds, b.rebuffer_seconds)
      << "session " << a.session_id;
  EXPECT_EQ(a.had_rebuffer, b.had_rebuffer) << "session " << a.session_id;
  EXPECT_EQ(a.bitrate_switches, b.bitrate_switches)
      << "session " << a.session_id;
  EXPECT_EQ(a.stability, b.stability) << "session " << a.session_id;
}

/// Drive the pool and the reference through one randomized world: Poisson
/// arrivals on `policies` (uniformly) and the two ladders (by arm), a
/// congested shared link, and enough ticks for startups, rebuffers,
/// abandonments, and completions to all occur. Every per-session demand
/// and every finalized record must match the reference bit for bit.
void expect_pool_matches_reference(std::uint64_t seed,
                                   const std::vector<AbrPolicy>& policies,
                                   const BitrateLadder& uncapped,
                                   const BitrateLadder& capped) {
  stats::Rng world(seed);
  SessionParams params;
  SessionPool pool(params, policies);
  ReferencePool ref(params, policies);

  FluidLinkConfig link_config;
  // Small enough that peak demand oversubscribes the water-fill.
  link_config.capacity_bps = world.uniform(40e6, 80e6);
  FluidLink link(link_config);

  const double dt = 1.0;
  const std::size_t ticks = 600;
  std::uint64_t next_id = 0;
  std::vector<double> demands, alloc, grant_by_id;
  std::vector<SessionRecord> pool_records, ref_records;
  const auto collect = [&pool_records](const SessionRecord& r) {
    pool_records.push_back(r);
  };
  std::uint64_t completed = 0;

  for (std::size_t t = 0; t < ticks; ++t) {
    // Poisson arrivals, heavier early so the pool fills up.
    const std::uint64_t arrivals = world.poisson(t < ticks / 2 ? 1.2 : 0.3);
    for (std::uint64_t a = 0; a < arrivals; ++a) {
      SessionPool::Arrival arrival;
      arrival.id = next_id++;
      arrival.account = arrival.id / 3;
      arrival.link = 0;
      arrival.treated = world.bernoulli(0.5);
      arrival.start_time = static_cast<double>(t) * dt;
      arrival.duration = world.uniform(30.0, 300.0);
      arrival.ladder = arrival.treated ? &capped : &uncapped;
      arrival.patience = world.uniform(4.0, 20.0);
      arrival.access_rate_bps = world.lognormal(15.0, 0.8);
      arrival.policy =
          static_cast<std::uint8_t>(world.uniform_int(policies.size()));
      pool.add(arrival);
      ref.add(arrival);
    }
    grant_by_id.resize(next_id, 0.0);

    // Pool demand pass; the reference must agree per session id.
    SessionPool::DemandTotals totals;
    pool.gather_demand(demands, totals);
    const std::size_t n = pool.size();
    ASSERT_EQ(demands.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = pool.finalize(i).session_id;
      const RefSession* match = nullptr;
      for (const RefSession& s : ref.sessions()) {
        if (s.id == id) match = &s;
      }
      ASSERT_NE(match, nullptr) << "id " << id;
      ASSERT_EQ(demands[i], ref.demand(*match)) << "id " << id;
    }

    // One shared allocation feeds both implementations, exactly as the
    // cluster tick drives the pool.
    const std::span<const double> grants = link.allocate_and_advance(
        demands, totals.desired_load_bps, totals.demand_sum_bps,
        totals.demand_positive, dt, alloc);
    const double rtt = link.rtt();
    const double loss = link.loss_fraction();
    for (std::size_t i = 0; i < n; ++i) {
      grant_by_id[pool.finalize(i).session_id] = grants[i];
    }

    pool.advance_all(dt, grants, rtt, loss, nullptr);
    pool.check_invariants();  // any build, not just Debug
    ref.advance_all(dt, grant_by_id, rtt, loss);

    pool.retire_finished(collect, completed);
    ref.retire_finished(ref_records);
    ASSERT_EQ(pool_records.size(), ref_records.size()) << "tick " << t;
  }

  pool.flush_all(collect);
  ref.flush_all(ref_records);
  ASSERT_EQ(pool_records.size(), ref_records.size());
  ASSERT_GT(completed, 0u);

  const auto by_id = [](const SessionRecord& a, const SessionRecord& b) {
    return a.session_id < b.session_id;
  };
  std::sort(pool_records.begin(), pool_records.end(), by_id);
  std::sort(ref_records.begin(), ref_records.end(), by_id);
  for (std::size_t i = 0; i < pool_records.size(); ++i) {
    expect_records_equal(pool_records[i], ref_records[i]);
  }
}

TEST(PoolReference, PartitionedTickMatchesSwitchPerSlotReference) {
  // All three ABR kinds on both arms (capped and uncapped ladders).
  const BitrateLadder uncapped = BitrateLadder::standard();
  const BitrateLadder capped = uncapped.capped(2.5e6);
  std::vector<AbrPolicy> kinds(3);
  kinds[0].kind = AbrKind::kHybrid;
  kinds[1].kind = AbrKind::kBufferBased;
  kinds[2].kind = AbrKind::kRate;
  for (const std::uint64_t seed : {11ULL, 29ULL, 47ULL}) {
    SCOPED_TRACE(seed);
    expect_pool_matches_reference(seed, kinds, uncapped, capped);
  }

  // Hybrid maps other than the default, whose rung thresholds fall
  // between doubles: no reservoir, and cushions no double holds exactly.
  std::vector<AbrPolicy> hybrids(3);
  hybrids[0].config.reservoir_seconds = 0.0;
  hybrids[0].config.cushion_seconds = 7.3;
  hybrids[1].config.reservoir_seconds = 3.3;
  hybrids[1].config.cushion_seconds = 50.0 / 3.0;
  hybrids[2].config.reservoir_seconds = 12.5;
  hybrids[2].config.cushion_seconds = 0.1;
  for (const std::uint64_t seed : {5ULL, 83ULL}) {
    SCOPED_TRACE(seed);
    expect_pool_matches_reference(seed, hybrids, uncapped, capped);
  }

  // Duplicate rungs: the map's index moves while the rate stays, so no
  // switch may be counted; the startup rate is off this ladder.
  const BitrateLadder duplicated(
      {235e3, 750e3, 750e3, 750e3, 1750e3, 1750e3, 4300e3, 4300e3});
  const BitrateLadder duplicated_capped = duplicated.capped(2e6);
  hybrids.push_back(kinds[1]);
  for (const std::uint64_t seed : {19ULL, 61ULL}) {
    SCOPED_TRACE(seed);
    expect_pool_matches_reference(seed, hybrids, duplicated,
                                  duplicated_capped);
  }
}

}  // namespace
}  // namespace xp::video
