#include "video/session_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace xp::video {

StallSampler::StallSampler(double per_trial_probability, std::uint64_t seed,
                           double min_stall_seconds, double max_stall_seconds)
    : probability_(std::min(per_trial_probability, 1.0)),
      min_stall_seconds_(min_stall_seconds),
      max_stall_seconds_(max_stall_seconds),
      rng_(seed) {
  if (probability_ > 0.0) draw_gap();
}

void StallSampler::draw_gap() noexcept {
  if (probability_ >= 1.0) {
    trials_left_ = 1;
    return;
  }
  // gap ~ 1 + floor(log(1-u) / log(1-p)): the number of Bernoulli(p)
  // trials up to and including the first success. u < p  <=>  gap == 1.
  const double u = rng_.uniform();
  const double gap =
      std::floor(std::log1p(-u) / std::log1p(-probability_));
  // The log ratio is finite and >= 0 for u in [0,1), p in (0,1); the cast
  // clamp only guards pathological rounding.
  trials_left_ =
      1 + static_cast<std::uint64_t>(std::min(gap, 9.0e18));
}

SessionPool::SessionPool(const SessionParams& params,
                         std::vector<AbrPolicy> policies)
    : params_(params), policies_(std::move(policies)) {
  if (policies_.empty() || policies_.size() > 255) {
    throw std::invalid_argument(
        "SessionPool: policy table must hold 1..255 entries");
  }
  for (const AbrPolicy& policy : policies_) {
    track_rate_ |= policy.kind == AbrKind::kRate;
  }
  rate_alpha_.assign(policies_.size(), 0.0);
  rung_thresholds_.resize(policies_.size());
  // Partition buckets: (playing | startup | rebuffering) x policy, then
  // one done bucket at the physical tail.
  const std::size_t buckets = 3 * policies_.size() + 1;
  bucket_count_.assign(buckets, 0);
  bucket_begin_.assign(buckets + 1, 0);
  bucket_cursor_.assign(buckets, 0);
}

std::size_t SessionPool::bucket_of(std::size_t i) const noexcept {
  // Physical bucket order puts playing (the hottest state) first; kRank
  // remaps the enum's startup-first declaration order.
  static constexpr std::uint8_t kRank[4] = {1, 0, 2, 3};
  const auto r = kRank[static_cast<std::uint8_t>(state_[i])];
  const std::size_t policies = policies_.size();
  return r == 3 ? 3 * policies
                : static_cast<std::size_t>(r) * policies + policy_[i];
}

void SessionPool::set_state(std::size_t i, SessionState to) noexcept {
  --bucket_count_[bucket_of(i)];
  state_[i] = to;
  ++bucket_count_[bucket_of(i)];
  partition_dirty_ = true;
}

void SessionPool::repartition() {
  if (!partition_dirty_) return;
  const std::size_t buckets = bucket_count_.size();
  std::size_t acc = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_begin_[b] = acc;
    bucket_cursor_[b] = acc;
    acc += bucket_count_[b];
  }
  bucket_begin_[buckets] = acc;
  // American-flag pass: scan each bucket's target range; every misplaced
  // slot is swapped with a misplaced position inside its own target
  // bucket (which must exist, since the counts match). Cost: one byte
  // scan of the pool plus one full-slot swap per out-of-place session —
  // transitions are rare next to slot-ticks, so this is the cheap side
  // of the branch-free-hot-loop trade.
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t end = bucket_begin_[b + 1];
    std::size_t& c = bucket_cursor_[b];
    while (c < end) {
      const std::size_t target = bucket_of(c);
      if (target == b) {
        ++c;
        continue;
      }
      std::size_t& t = bucket_cursor_[target];
      while (bucket_of(t) == target) ++t;
      swap_slots(c, t);
    }
  }
  partition_dirty_ = false;
}

template <typename Pool, typename F>
void SessionPool::for_each_slot_array(Pool& pool, F&& f) {
  f(pool.identity_, "identity");
  f(pool.state_, "state");
  f(pool.clock_, "clock");
  f(pool.buffer_seconds_, "buffer_seconds");
  f(pool.bitrate_, "bitrate");
  f(pool.quality_, "quality");
  f(pool.startup_bytes_left_, "startup_bytes_left");
  f(pool.played_seconds_, "played_seconds");
  f(pool.duration_, "duration");
  f(pool.patience_, "patience");
  f(pool.access_rate_bps_, "access_rate_bps");
  f(pool.sustained_cap_, "sustained_cap");
  f(pool.rungs_, "rungs");
  f(pool.rung_quality_, "rung_quality");
  f(pool.rung_top_index_, "rung_top_index");
  f(pool.policy_, "policy");
  f(pool.rung_index_, "rung_index");
  f(pool.rung_lo_, "rung_lo");
  f(pool.rung_hi_, "rung_hi");
  f(pool.ewma_rate_, "ewma_rate");
  f(pool.delivered_bytes_, "delivered_bytes");
  f(pool.retransmitted_bytes_, "retransmitted_bytes");
  f(pool.hungry_bytes_, "hungry_bytes");
  f(pool.hungry_seconds_, "hungry_seconds");
  f(pool.min_rtt_, "min_rtt");
  f(pool.play_delay_, "play_delay");
  f(pool.rebuffer_seconds_, "rebuffer_seconds");
  f(pool.rebuffer_count_, "rebuffer_count");
  f(pool.switches_, "switches");
  f(pool.cancelled_, "cancelled");
  f(pool.rtt_sum_ref_, "rtt_sum_ref");
  f(pool.rtt_ticks_ref_, "rtt_ticks_ref");
  f(pool.played_marker_, "played_marker");
  f(pool.bitrate_time_integral_, "bitrate_time_integral");
  f(pool.quality_time_integral_, "quality_time_integral");
}

void SessionPool::reserve(std::size_t sessions) {
  for_each_slot_array(*this, [sessions](auto& arr, const char*) {
    arr.reserve(sessions);
  });
  good_bytes_.reserve(sessions);
  sparse_slots_.reserve(sessions);
}

std::size_t SessionPool::add(const Arrival& arrival) {
  const std::size_t i = state_.size();
  identity_.push_back({arrival.id, arrival.account, arrival.start_time,
                       arrival.link, arrival.treated});
  state_.push_back(SessionState::kStartup);
  clock_.push_back(0.0);
  buffer_seconds_.push_back(0.0);
  const AbrPolicy& policy = policies_.at(arrival.policy);
  // Startup chunk rate is strategy-specific: BBA-proper starts at the
  // lowest rung; the hybrid and rate strategies use the fixed
  // throughput-informed startup rate (the pre-policy behavior).
  const double startup_bitrate =
      policy.kind == AbrKind::kBufferBased
          ? arrival.ladder->lowest()
          : abr_startup(*arrival.ladder, policy.config);
  bitrate_.push_back(startup_bitrate);
  quality_.push_back(perceptual_quality(startup_bitrate));
  startup_bytes_left_.push_back(startup_bitrate *
                                params_.startup_chunk_seconds / 8.0);
  played_seconds_.push_back(0.0);
  duration_.push_back(arrival.duration);
  patience_.push_back(arrival.patience);
  access_rate_bps_.push_back(arrival.access_rate_bps);
  // Desired consumption absent congestion: the top of the (possibly
  // capped) ladder this session would stream at, plus protocol overhead,
  // bounded by its access link. Deliberately *not* a function of the
  // ABR-adapted bitrate: congestion must not feed back into the
  // congestion signal, or the standing queue dissolves as soon as
  // clients adapt — which is not what droptail queues under elastic TCP
  // do.
  sustained_cap_.push_back(
      std::min(arrival.access_rate_bps, arrival.ladder->highest() * 1.10));
  const std::span<const double> rungs = arrival.ladder->rungs();
  rungs_.push_back(rungs.data());
  rung_quality_.push_back(arrival.ladder->rung_quality().data());
  rung_top_index_.push_back(static_cast<double>(rungs.size() - 1));
  policy_.push_back(arrival.policy);
  rung_index_.push_back(-1);
  rung_lo_.push_back(std::numeric_limits<double>::infinity());
  rung_hi_.push_back(-std::numeric_limits<double>::infinity());
  if (policy.kind == AbrKind::kHybrid) {
    // First session on a ladder this long: add the threshold tables up to
    // its top index (one-off; the steady state allocates nothing).
    auto& tables = rung_thresholds_[arrival.policy];
    while (tables.size() < rungs.size()) {
      tables.push_back(abr_rung_thresholds(
          static_cast<double>(tables.size()), policy.config));
    }
  }
  // Optimistic first throughput estimate: the access link, refined by the
  // EWMA from the first downloading tick on (kRate policies only).
  ewma_rate_.push_back(arrival.access_rate_bps);
  delivered_bytes_.push_back(0.0);
  retransmitted_bytes_.push_back(0.0);
  hungry_bytes_.push_back(0.0);
  hungry_seconds_.push_back(0.0);
  min_rtt_.push_back(1e9);
  play_delay_.push_back(0.0);
  rebuffer_seconds_.push_back(0.0);
  rebuffer_count_.push_back(0);
  switches_.push_back(0);
  cancelled_.push_back(0);
  rtt_sum_ref_.push_back(cum_rtt_sum_);
  rtt_ticks_ref_.push_back(cum_rtt_ticks_);
  played_marker_.push_back(0.0);
  bitrate_time_integral_.push_back(0.0);
  quality_time_integral_.push_back(0.0);
  // New arrivals are appended past the physical partition and folded into
  // their startup bucket by the next tick pass's repartition().
  ++bucket_count_[policies_.size() + arrival.policy];
  partition_dirty_ = true;
  return i;
}

namespace {

// The fused demand-gather pass, hoisted into a free function: four
// distinct arrays feed the loops, and only restrict-qualified
// *parameters* (GCC ignores the qualifier on locals) spare the vectorizer
// the runtime alias versioning it refuses past its check budget. The
// demand sum and positive count the water-fill allocator seeds from, and
// the desired-load cap sum, all ride in the same sweeps: four independent
// accumulator lanes each (fixed order, deterministic), with counts in
// double lanes (exact far past any pool size) so each loop stays one
// homogeneous SIMD block.
[[gnu::noinline]] void gather_demand_pass(
    const double* __restrict buf, const double* __restrict access,
    const double* __restrict cap, double* __restrict out,
    std::size_t playing_end, std::size_t alive_end, double chunk,
    double max_buffer, double& demand_sum, double& demand_positive,
    double& desired_load) noexcept {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  // On-off chunked demand over the dense playing range: fetch at access
  // speed while there is room for another chunk, idle otherwise. The
  // access-rate load is hoisted so the select has no conditional load --
  // SSE2 has no masked loads, and the vectorizer rejects the fused form.
  std::size_t i = 0;
  // vec-check: gather-playing
  for (; i + 4 <= playing_end; i += 4) {
    const double r0 = access[i];
    const double r1 = access[i + 1];
    const double r2 = access[i + 2];
    const double r3 = access[i + 3];
    const double d0 = buf[i] + chunk <= max_buffer ? r0 : 0.0;
    const double d1 = buf[i + 1] + chunk <= max_buffer ? r1 : 0.0;
    const double d2 = buf[i + 2] + chunk <= max_buffer ? r2 : 0.0;
    const double d3 = buf[i + 3] + chunk <= max_buffer ? r3 : 0.0;
    out[i] = d0;
    out[i + 1] = d1;
    out[i + 2] = d2;
    out[i + 3] = d3;
    s0 += d0;
    s1 += d1;
    s2 += d2;
    s3 += d3;
    c0 += d0 > 0.0 ? 1.0 : 0.0;
    c1 += d1 > 0.0 ? 1.0 : 0.0;
    c2 += d2 > 0.0 ? 1.0 : 0.0;
    c3 += d3 > 0.0 ? 1.0 : 0.0;
    l0 += cap[i];
    l1 += cap[i + 1];
    l2 += cap[i + 2];
    l3 += cap[i + 3];
  }
  for (; i < playing_end; ++i) {
    const double r = access[i];
    const double d = buf[i] + chunk <= max_buffer ? r : 0.0;
    out[i] = d;
    s0 += d;
    c0 += d > 0.0 ? 1.0 : 0.0;
    l0 += cap[i];
  }
  // Startup and rebuffering sessions always fetch at access speed; done
  // slots (transient, between advance and retire) demand nothing. This
  // segment is left as a plain sequential loop on purpose: it is mostly a
  // copy, and GCC vectorizes the memory traffic while keeping the sums as
  // exact in-order fold-left reductions. (The manual 4-lane form used
  // above trips a vectorizer limitation here -- a raw load feeding both a
  // store and a reduction gets "no vectype" -- and SLP-only stores are
  // slower than the vectorized copy.)
  // vec-check: gather-startup
  for (std::size_t j = playing_end; j < alive_end; ++j) {
    const double d = access[j];
    out[j] = d;
    s0 += d;
    c0 += d > 0.0 ? 1.0 : 0.0;
    l0 += cap[j];
  }
  demand_sum = (s0 + s1) + (s2 + s3);
  demand_positive = (c0 + c1) + (c2 + c3);
  desired_load = (l0 + l1) + (l2 + l3);
}

}  // namespace

void SessionPool::gather_demand(std::vector<double>& demands,
                                DemandTotals& totals) {
  repartition();
  const std::size_t n = state_.size();
  demands.resize(n);
  const std::size_t policies = policies_.size();
  const std::size_t playing_end = bucket_begin_[policies];
  const std::size_t alive_end = bucket_begin_[3 * policies];
  double positive = 0.0;
  gather_demand_pass(buffer_seconds_.data(), access_rate_bps_.data(),
                     sustained_cap_.data(), demands.data(), playing_end,
                     alive_end, params_.chunk_seconds,
                     params_.max_buffer_seconds, totals.demand_sum_bps,
                     positive, totals.desired_load_bps);
  totals.demand_positive = static_cast<std::size_t>(positive);
  std::fill(demands.data() + alive_end, demands.data() + n, 0.0);
}

namespace {

// Phase B of advance_all, hoisted into a free function: eight distinct
// arrays feed the loop, and only restrict-qualified *parameters* (GCC
// ignores the qualifier on locals) spare the vectorizer the quadratic
// runtime alias versioning it refuses to emit past ~10 checks. noinline
// keeps the restrict tags from being discarded by inlining; one call per
// tick is noise. Returns the number of hungry slots (downloading at or
// below half a buffer): only those take the sparse hungry-telemetry pass.
[[gnu::noinline]] double playing_telemetry_pass(
    const double* __restrict grant, const double* __restrict buf,
    double* __restrict good, double* __restrict delivered,
    double* __restrict retx, double* __restrict clock,
    double* __restrict mrtt, std::size_t playing_end, double dt, double loss,
    double fixed_retx, double half_buffer, double rtt) noexcept {
  // Loss consumes goodput: of the granted rate, a `loss` fraction is
  // spent on retransmissions, plus a fixed recovery overhead per played
  // second. Idle sessions (zero grant — the buffer-full steady state)
  // contribute exact 0.0 terms, so no per-slot branch is needed.
  double hungry = 0.0;
  // vec-check: playing-telemetry
  for (std::size_t i = 0; i < playing_end; ++i) {
    clock[i] += dt;
    mrtt[i] = std::min(mrtt[i], rtt);
    const double rate = grant[i];
    const double wire = rate * dt / 8.0;
    const double g = wire * (1.0 - loss);
    good[i] = g;
    delivered[i] += g;
    retx[i] += wire * loss;
    retx[i] += fixed_retx;
    // Counted in a double through two double-armed selects: an integer
    // or bool term would mix lane types into this loop and stop it
    // vectorizing. The count is exact far past any pool size.
    const double low = buf[i] <= half_buffer ? 1.0 : 0.0;
    hungry += rate > 0.0 ? low : 0.0;
  }
  return hungry;
}

// Branch-free compaction: writes every slot i in [begin, end) with
// pred(i) to `out`, in slot order, and returns how many. Each index is
// stored unconditionally and the cursor advances by the predicate, so a
// rare or erratic predicate costs no mispredicted branches.
template <typename Pred>
std::size_t collect_slots(std::size_t begin, std::size_t end,
                          std::uint32_t* out, Pred pred) noexcept {
  std::size_t m = 0;
  for (std::size_t i = begin; i < end; ++i) {
    out[m] = static_cast<std::uint32_t>(i);
    m += pred(i) ? 1 : 0;
  }
  return m;
}

}  // namespace

void SessionPool::apply_bitrate_switch(std::size_t i, double next,
                                       double quality) noexcept {
  ++switches_[i];
  // Close the constant-bitrate segment: the integrals advance only here
  // and at finalize, never per tick.
  const double segment = played_seconds_[i] - played_marker_[i];
  if (segment > 0.0) {
    bitrate_time_integral_[i] += bitrate_[i] * segment;
    quality_time_integral_[i] += quality_[i] * segment;
    played_marker_[i] = played_seconds_[i];
  }
  bitrate_[i] = next;
  // Bitrates only take ladder-rung values, so the caller hands over the
  // ladder's cached per-rung score — no log() anywhere in the tick.
  quality_[i] = quality;
}

const double* SessionPool::rung_thresholds(std::size_t p,
                                           std::size_t i) const noexcept {
  return rung_thresholds_[p][static_cast<std::size_t>(rung_top_index_[i])]
      .data();
}

void SessionPool::take_rung(std::size_t i, std::size_t k) noexcept {
  rung_index_[i] = static_cast<std::int32_t>(k);
  const double next = rungs_[i][k];
  if (next != bitrate_[i]) {
    apply_bitrate_switch(i, next, rung_quality_[i][k]);
  }
}

void SessionPool::select_hybrid(std::size_t i, const AbrConfig& config,
                                const double* thresholds) noexcept {
  const std::size_t k =
      abr_select_index_rungs(rung_top_index_[i], config, buffer_seconds_[i]);
  rung_lo_[i] = thresholds[k];
  rung_hi_[i] = thresholds[k + 1];
  take_rung(i, k);
}

void SessionPool::select_bitrate(std::size_t i) noexcept {
  // Scalar policy dispatch, kept for the rare off-the-fast-path selects
  // (the rebuffer re-select); the playing pass dispatches per policy
  // sub-batch instead, never per slot.
  const AbrPolicy& policy = policies_[policy_[i]];
  switch (policy.kind) {
    case AbrKind::kHybrid:
      select_hybrid(i, policy.config, rung_thresholds(policy_[i], i));
      break;
    case AbrKind::kBufferBased:
      take_rung(i, bba_select_index_rungs(rungs_[i], rung_top_index_[i],
                                          policy.config, buffer_seconds_[i]));
      break;
    case AbrKind::kRate:
      take_rung(i, rate_select_index_rungs(rungs_[i], rung_top_index_[i],
                                           policy.rate_safety * ewma_rate_[i]));
      break;
  }
}

void SessionPool::advance_all(double dt, std::span<const double> alloc,
                              double rtt, double loss,
                              StallSampler* stalls) {
  // No-op when gather_demand just ran; restores the partition for callers
  // that add() and advance directly (tests driving a pool by hand).
  repartition();
  const std::size_t n = state_.size();
  const std::size_t policies = policies_.size();
  const double max_buffer = params_.max_buffer_seconds;
  const double half_buffer = 0.5 * max_buffer;
  const double fixed_retx = params_.fixed_retx_bytes_per_play_second * dt;
  const double request_latency = 2.0 * rtt;
  if (track_rate_) {
    for (std::size_t p = 0; p < policies; ++p) {
      rate_alpha_[p] = dt / (policies_[p].rate_tau_seconds + dt);
    }
  }

  // One RTT sample per alive session per tick, accumulated once for the
  // whole pool (sessions diff the counters; see the header note).
  cum_rtt_sum_ += rtt;
  ++cum_rtt_ticks_;
  const auto freeze_rtt = [this](std::size_t i) {
    rtt_sum_ref_[i] = cum_rtt_sum_ - rtt_sum_ref_[i];
    rtt_ticks_ref_[i] = cum_rtt_ticks_ - rtt_ticks_ref_[i];
  };

  // Region boundaries for this tick; transitions below only rewrite state
  // bytes (and bucket counts), the physical reorder happens once at the
  // end. Every phase therefore sees a stable slot order, and `alloc`
  // stays aligned with the order gather_demand published.
  const std::size_t playing_end = bucket_begin_[policies];
  const std::size_t startup_end = bucket_begin_[2 * policies];
  const std::size_t alive_end = bucket_begin_[3 * policies];
  good_bytes_.resize(n);
  sparse_slots_.resize(n);
  std::uint32_t* sparse = sparse_slots_.data();

  // --- Phase A: wall clock + RTT floor for the non-playing alive tail
  // (the playing range gets the same update fused into Phase B below —
  // one pass fewer over the hottest rows).
  {
    double* clock = clock_.data();
    double* mrtt = min_rtt_.data();
    // vec-check: alive-clock-rtt
    for (std::size_t i = playing_end; i < alive_end; ++i) {
      clock[i] += dt;
      mrtt[i] = std::min(mrtt[i], rtt);
    }
  }

  // --- Phase B: playing telemetry, branch-free over the dense range ---
  const double hungry = playing_telemetry_pass(
      alloc.data(), buffer_seconds_.data(), good_bytes_.data(),
      delivered_bytes_.data(), retransmitted_bytes_.data(), clock_.data(),
      min_rtt_.data(), playing_end, dt, loss, fixed_retx, half_buffer, rtt);
  // Throughput telemetry counts only the fraction of the tick the session
  // could actually use (a chunk completing mid-tick must not dilute the
  // measured rate), and drops trickle ticks near the buffer ceiling
  // entirely: only a session downloading at or below half a buffer
  // accrues it. Every other slot would add exact +0.0 terms, so only the
  // hungry ones are visited (before Phase C, which may move the bitrate).
  if (hungry > 0.0) {
    const double* grant = alloc.data();
    const double* buf = buffer_seconds_.data();
    const std::size_t m =
        collect_slots(0, playing_end, sparse, [&](std::size_t i) {
          return (grant[i] > 0.0) & (buf[i] <= half_buffer);
        });
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = sparse[j];
      const double wire = grant[i] * dt / 8.0;
      const double room = (max_buffer - buf[i] + dt) * bitrate_[i] / 8.0;
      const double used = std::min(std::max(room / good_bytes_[i], 0.0), 1.0);
      hungry_bytes_[i] += wire * used;
      hungry_seconds_[i] += dt * used;
    }
  }
  // Rate-based ABR input: smooth the granted rate while downloading
  // (idle ticks keep the last estimate, like real clients). Per-policy
  // sub-ranges make the EWMA coefficient a loop constant.
  if (track_rate_) {
    const double* grant = alloc.data();
    double* ewma = ewma_rate_.data();
    for (std::size_t p = 0; p < policies; ++p) {
      const double alpha = rate_alpha_[p];
      const std::size_t end = bucket_begin_[p + 1];
      // vec-check: playing-ewma
      for (std::size_t i = bucket_begin_[p]; i < end; ++i) {
        const double g = grant[i];
        const double e = ewma[i];
        const double smoothed = e + alpha * (g - e);
        ewma[i] = g > 0.0 ? smoothed : e;
      }
    }
  }

  // --- Phase C: bitrate selection, one tight loop per policy ----------
  for (std::size_t p = 0; p < policies; ++p) {
    const std::size_t begin = bucket_begin_[p];
    const std::size_t end = bucket_begin_[p + 1];
    if (begin == end) continue;
    const AbrPolicy& policy = policies_[p];
    switch (policy.kind) {
      case AbrKind::kHybrid: {
        // A slot can pick a different rung only once its buffer leaves
        // the exact interval of its cached one (an empty interval before
        // the first pick), so the map and its divide run on those few
        // slots alone; the rest keep their rung, as the map would.
        const double* buf = buffer_seconds_.data();
        const double* lo = rung_lo_.data();
        const double* hi = rung_hi_.data();
        const std::size_t m =
            collect_slots(begin, end, sparse, [&](std::size_t i) {
              return (buf[i] < lo[i]) | (buf[i] >= hi[i]);
            });
        for (std::size_t j = 0; j < m; ++j) {
          const std::size_t i = sparse[j];
          select_hybrid(i, policy.config, rung_thresholds(p, i));
        }
        break;
      }
      case AbrKind::kBufferBased:
        for (std::size_t i = begin; i < end; ++i) {
          take_rung(i, bba_select_index_rungs(rungs_[i], rung_top_index_[i],
                                              policy.config,
                                              buffer_seconds_[i]));
        }
        break;
      case AbrKind::kRate:
        for (std::size_t i = begin; i < end; ++i) {
          take_rung(i, rate_select_index_rungs(
                           rungs_[i], rung_top_index_[i],
                           policy.rate_safety * ewma_rate_[i]));
        }
        break;
    }
  }

  // --- Phase D: buffer integration + playback over the playing range,
  // counting the slots that played out or ran dry.
  double transitions = 0.0;  // a double count keeps the loop vectorized
  {
    const double* good = good_bytes_.data();
    const double* bps = bitrate_.data();
    const double* duration = duration_.data();
    double* buf = buffer_seconds_.data();
    double* played = played_seconds_.data();
    // vec-check: playing-buffer
    for (std::size_t i = 0; i < playing_end; ++i) {
      double level = buf[i] + good[i] * 8.0 / bps[i];
      level = std::min(level, max_buffer);
      buf[i] = level - dt;  // playback consumes real time
      played[i] += dt;
      const double ended = played[i] >= duration[i] ? 1.0 : 0.0;
      transitions += buf[i] <= 0.0 ? 1.0 : ended;
    }
  }

  // --- Phase E: playing transitions (rare; skipped on most ticks) ------
  for (std::size_t i = 0; transitions > 0.0 && i < playing_end; ++i) {
    if (played_seconds_[i] >= duration_[i]) {
      set_state(i, SessionState::kDone);
      freeze_rtt(i);
      transitions -= 1.0;
    } else if (buffer_seconds_[i] <= 0.0) {
      buffer_seconds_[i] = 0.0;
      ++rebuffer_count_[i];
      set_state(i, SessionState::kRebuffering);
      select_bitrate(i);  // ABR drops to the reservoir rate
      transitions -= 1.0;
    }
  }

  // --- Phase F: startup sessions (few at any instant; scalar) ---------
  for (std::size_t i = playing_end; i < startup_end; ++i) {
    const double rate = alloc[i];
    double good = 0.0;
    if (rate > 0.0) {
      const double wire = rate * dt / 8.0;
      good = wire * (1.0 - loss);
      delivered_bytes_[i] += good;
      retransmitted_bytes_[i] += wire * loss;
      hungry_bytes_[i] += wire;
      hungry_seconds_[i] += dt;
      if (track_rate_) {
        ewma_rate_[i] += rate_alpha_[policy_[i]] * (rate - ewma_rate_[i]);
      }
    }
    const double before = startup_bytes_left_[i];
    startup_bytes_left_[i] -= good;
    if (startup_bytes_left_[i] <= 0.0) {
      // Interpolate the completion instant within the tick, and add the
      // request latency (handshake + chunk request) of two RTTs.
      const double frac = good > 0.0 ? before / good : 1.0;
      play_delay_[i] =
          clock_[i] - dt + dt * std::min(frac, 1.0) + request_latency;
      buffer_seconds_[i] = params_.startup_chunk_seconds;
      set_state(i, SessionState::kPlaying);
    } else if (clock_[i] >= patience_[i]) {
      play_delay_[i] = clock_[i];
      cancelled_[i] = 1;
      set_state(i, SessionState::kDone);
      freeze_rtt(i);
    }
  }

  // --- Phase G: rebuffering sessions (few at any instant; scalar) -----
  for (std::size_t i = startup_end; i < alive_end; ++i) {
    const double rate = alloc[i];
    double good = 0.0;
    if (rate > 0.0) {
      const double wire = rate * dt / 8.0;
      good = wire * (1.0 - loss);
      delivered_bytes_[i] += good;
      retransmitted_bytes_[i] += wire * loss;
      hungry_bytes_[i] += wire;
      hungry_seconds_[i] += dt;
      if (track_rate_) {
        ewma_rate_[i] += rate_alpha_[policy_[i]] * (rate - ewma_rate_[i]);
      }
    }
    rebuffer_seconds_[i] += dt;
    buffer_seconds_[i] += good * 8.0 / bitrate_[i];
    if (buffer_seconds_[i] >= params_.rebuffer_resume_seconds) {
      set_state(i, SessionState::kPlaying);
    }
  }

  // Restore the physical partition, then thin spurious (content-driven)
  // stalls over the now-dense playing range: the skip-sampler jumps
  // straight to firing trial indices, so the cost is O(fires) instead of
  // one trial decrement per playing session. Trial order is partitioned
  // slot order — deterministic, like every pass above.
  repartition();
  if (stalls != nullptr && stalls->enabled()) {
    stalls->step_block(bucket_begin_[policies], [&](std::uint64_t k) {
      ++rebuffer_count_[k];
      rebuffer_seconds_[k] += stalls->draw_stall_seconds();
    });
  }
#ifndef NDEBUG
  check_invariants();
#endif
}

void SessionPool::inject_spurious_rebuffer(std::size_t i,
                                           double seconds) noexcept {
  if (state_[i] != SessionState::kPlaying) return;
  ++rebuffer_count_[i];
  rebuffer_seconds_[i] += seconds;
}

SessionRecord SessionPool::finalize(std::size_t i) const {
  SessionRecord r;
  const Identity& who = identity_[i];
  r.session_id = who.id;
  r.account_id = who.account;
  r.link = who.link;
  r.treated = who.treated;
  r.start_time = who.start_time;
  r.day = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(who.start_time) / 86400);
  r.hour = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(who.start_time) % 86400) / 3600);
  r.duration = played_seconds_[i];

  // Throughput: achievable rate, measured while the client was actually
  // trying to fill (startup, catchup, rebuffer) — matching client QoE
  // telemetry, which reports per-download throughput.
  if (hungry_seconds_[i] > 0.0) {
    r.avg_throughput_bps = hungry_bytes_[i] * 8.0 / hungry_seconds_[i];
  } else if (clock_[i] > 0.0) {
    r.avg_throughput_bps =
        (delivered_bytes_[i] + retransmitted_bytes_[i]) * 8.0 / clock_[i];
  }
  r.min_rtt = min_rtt_[i] >= 1e9 ? 0.0 : min_rtt_[i];
  // Refs hold frozen totals once done, entry snapshots while alive.
  const bool done = state_[i] == SessionState::kDone;
  const double rtt_sum =
      done ? rtt_sum_ref_[i] : cum_rtt_sum_ - rtt_sum_ref_[i];
  const std::uint64_t rtt_ticks =
      done ? rtt_ticks_ref_[i] : cum_rtt_ticks_ - rtt_ticks_ref_[i];
  r.mean_rtt =
      rtt_ticks == 0 ? 0.0 : rtt_sum / static_cast<double>(rtt_ticks);
  const double sent = delivered_bytes_[i] + retransmitted_bytes_[i];
  r.bytes_sent = sent;
  r.retransmit_fraction = sent > 0.0 ? retransmitted_bytes_[i] / sent : 0.0;

  r.play_delay = play_delay_[i];
  r.cancelled_start = cancelled_[i] != 0;
  if (played_seconds_[i] > 0.0) {
    // Close the open constant-bitrate segment (without mutating state).
    const double segment = played_seconds_[i] - played_marker_[i];
    const double bitrate_integral =
        bitrate_time_integral_[i] + bitrate_[i] * segment;
    const double quality_integral =
        quality_time_integral_[i] + quality_[i] * segment;
    r.avg_bitrate_bps = bitrate_integral / played_seconds_[i];
    r.perceptual_quality = quality_integral / played_seconds_[i];
    r.stability =
        1.0 / (1.0 + 60.0 * static_cast<double>(switches_[i]) /
                         played_seconds_[i]);
  }
  r.rebuffer_count = rebuffer_count_[i];
  r.rebuffer_seconds = rebuffer_seconds_[i];
  r.had_rebuffer = rebuffer_count_[i] > 0;
  r.bitrate_switches = switches_[i];
  return r;
}

void SessionPool::retire_finished(
    const std::function<void(const SessionRecord&)>& sink,
    std::uint64_t& completed) {
  // Done sessions live in the tail bucket, so retirement is a finalize
  // sweep over a dense suffix plus one truncation — no per-slot
  // swap-erase holes, and surviving slot order is untouched.
  repartition();
  const std::size_t alive_end = bucket_begin_[3 * policies_.size()];
  const std::size_t n = state_.size();
  for (std::size_t i = alive_end; i < n; ++i) {
    sink(finalize(i));
    ++completed;
  }
  if (alive_end != n) truncate(alive_end);
}

void SessionPool::flush_all(
    const std::function<void(const SessionRecord&)>& sink) const {
  for (std::size_t i = 0; i < state_.size(); ++i) {
    sink(finalize(i));
  }
}

void SessionPool::swap_slots(std::size_t a, std::size_t b) noexcept {
  for_each_slot_array(*this, [a, b](auto& arr, const char*) {
    using std::swap;
    swap(arr[a], arr[b]);
  });
}

void SessionPool::truncate(std::size_t new_size) {
  for_each_slot_array(*this, [new_size](auto& arr, const char*) {
    arr.resize(new_size);
  });
  bucket_count_.back() = 0;
  bucket_begin_.back() = new_size;
}

void SessionPool::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("SessionPool invariant violated: " + what);
  };
  const std::size_t n = state_.size();
  const std::size_t policies = policies_.size();
  for_each_slot_array(*this, [&](const auto& arr, const char* name) {
    if (arr.size() != n) fail(std::string("array length mismatch: ") + name);
  });

  // Bucket bookkeeping: eager counts must match a fresh recount, and when
  // the partition is clean the physical layout must match bucket_begin_.
  std::vector<std::size_t> recount(3 * policies + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (policy_[i] >= policies) fail("policy index out of range");
    ++recount[bucket_of(i)];
  }
  if (recount != bucket_count_) fail("bucket counts out of sync");
  if (!partition_dirty_) {
    std::size_t acc = 0;
    for (std::size_t b = 0; b < recount.size(); ++b) {
      if (bucket_begin_[b] != acc) fail("bucket_begin out of sync");
      acc += bucket_count_[b];
    }
    if (bucket_begin_.back() != acc || acc != n) {
      fail("bucket_begin tail out of sync");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = bucket_of(i);
      if (i < bucket_begin_[b] || i >= bucket_begin_[b] + bucket_count_[b]) {
        fail("slot outside its bucket range");
      }
    }
  }

  // Per-slot cached state must survive swaps: rung pointers valid and
  // consistent with the cached quality/bitrate, telemetry snapshots
  // never ahead of the pool-wide cumulative counters.
  for (std::size_t i = 0; i < n; ++i) {
    if (rungs_[i] == nullptr) fail("null cached rung pointer");
    if (rung_quality_[i] == nullptr) fail("null cached rung-quality pointer");
    const auto top_idx = static_cast<std::size_t>(rung_top_index_[i]);
    const double top = rungs_[i][top_idx];
    if (!(bitrate_[i] > 0.0) || bitrate_[i] > top) {
      fail("bitrate outside ladder range");
    }
    if (quality_[i] != perceptual_quality(bitrate_[i])) {
      fail("stale cached quality");
    }
    // The per-rung quality cache must track the rung array rung for
    // rung: the Phase C fast path hands rung_quality_[i][k] to
    // apply_bitrate_switch without recomputing the score.
    for (std::size_t r = 0; r <= top_idx; ++r) {
      if (rung_quality_[i][r] != perceptual_quality(rungs_[i][r])) {
        fail("stale per-rung quality cache");
      }
    }
    // The cached ABR pick: a rung index names the current bitrate, and a
    // hybrid slot's buffer interval is exactly that rung's table entry
    // (the empty interval before the first pick).
    const std::int32_t k = rung_index_[i];
    if (k < -1 || k > static_cast<std::int32_t>(top_idx)) {
      fail("cached rung index outside the ladder");
    }
    if (k >= 0 && bitrate_[i] != rungs_[i][k]) {
      fail("cached rung index does not name the bitrate");
    }
    if (policies_[policy_[i]].kind == AbrKind::kHybrid) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      const double* thresholds = rung_thresholds(policy_[i], i);
      const double lo = k >= 0 ? thresholds[k] : kInf;
      const double hi = k >= 0 ? thresholds[k + 1] : -kInf;
      if (rung_lo_[i] != lo || rung_hi_[i] != hi) {
        fail("cached rung interval differs from the threshold table");
      }
    }
    if (played_marker_[i] > played_seconds_[i]) {
      fail("played marker ahead of playback");
    }
    if (state_[i] != SessionState::kDone) {
      if (rtt_sum_ref_[i] > cum_rtt_sum_ || rtt_ticks_ref_[i] > cum_rtt_ticks_) {
        fail("rtt snapshot ahead of cumulative counters");
      }
    }
  }
}

}  // namespace xp::video
