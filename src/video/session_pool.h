// Struct-of-arrays session pool: the paired-link cluster's hot state.
//
// Every active session on a link lives in one slot of a set of parallel
// arrays (state machine, buffer level, demand inputs, telemetry
// accumulators), so the tick loop streams contiguous memory instead of
// chasing one heap object per session. Sessions reference a caller-owned
// BitrateLadder (the cluster precomputes the six device x treatment
// ladders once per run), so arrivals allocate nothing either.
//
// Slot order is *state-partitioned*: the arrays are kept physically
// grouped into contiguous buckets ordered (playing by policy) | (startup
// by policy) | (rebuffering by policy) | done. State transitions are rare
// (a handful per session lifetime) next to slot-ticks (one per session
// per tick), so the tick passes run branch-free over dense ranges — the
// per-slot state switch and per-slot policy dispatch are gone from the
// hot loops, which autovectorize (see tools/check_vectorization.sh) —
// and the partition is repaired afterwards by swapping only the slots
// that moved. Retiring pops the done bucket off the tail, so the
// steady-state tick still performs zero heap allocations.
//
// The playing tick also skips per-slot work that cannot change anything:
//  * Hybrid ABR selection never divides in the common case. Each slot
//    caches its rung index and the exact buffer interval that maps to it
//    (abr_rung_thresholds); a tick compares the buffer with the two
//    bounds and re-runs the map only for the few slots outside them.
//  * The hungry-throughput telemetry (and its divide) only moves slots
//    that are downloading at or below half a buffer; the vectorized pass
//    counts them and a sparse second loop updates just those.
//  * The buffer pass counts slots that played out or emptied their
//    buffer, and the transition scan runs only when that count is
//    non-zero.
//
// The session state machine (startup -> playing <-> rebuffering -> done)
// lives here, in exactly one place: the cluster drives one pool per link,
// and unit tests drive a pool of one session directly.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "stats/rng.h"
#include "video/abr.h"
#include "video/policy.h"
#include "video/session_record.h"

namespace xp::video {

struct SessionParams {
  /// Video seconds that must be buffered before playback starts.
  double startup_chunk_seconds = 4.0;
  /// Client buffer ceiling; downloads pause once reached.
  double max_buffer_seconds = 60.0;
  /// Segment size: the client downloads in chunks of this many video
  /// seconds at full speed, then idles (on-off pattern, like real
  /// players). Throughput telemetry covers download periods only.
  double chunk_seconds = 4.0;
  /// Playback resumes after a rebuffer once this much is buffered.
  double rebuffer_resume_seconds = 4.0;
  /// Last-mile access rate: per-session download ceiling drawn log-normal
  /// with this median and sigma, clamped to [min, max].
  double access_rate_median = 30e6;
  double access_rate_sigma = 0.9;
  double access_rate_min = 1.5e6;
  double access_rate_max = 400e6;
  /// Fixed loss-recovery overhead (bytes per second of *video played*):
  /// per-chunk request tails, probes, etc. — volume-independent. Capped
  /// sessions play the same video seconds with fewer bytes, so this makes
  /// their retransmitted *percentage* higher when congestion loss is low:
  /// the Section 4.3 oddity (+16% off-peak, -20% peak, +10% overall).
  double fixed_retx_bytes_per_play_second = 400.0;
  /// Users abandon if startup exceeds a per-session patience threshold
  /// drawn uniformly from this range (seconds).
  double cancel_patience_min = 8.0;
  double cancel_patience_max = 45.0;
};

/// Session playback state machine: startup -> playing <-> rebuffering ->
/// done. One byte, so the pool's state pass streams 64 sessions per cache
/// line.
enum class SessionState : std::uint8_t {
  kStartup,
  kPlaying,
  kRebuffering,
  kDone,
};

/// Geometric skip-sampler for rare per-(session, tick) Bernoulli events.
///
/// Instead of one uniform draw per playing session per tick to thin
/// spurious stalls (the old hot-loop cost: tens of millions of draws per
/// simulated day), draw the *gap* between successes once per event:
/// gap ~ 1 + floor(log(1-u) / log(1-p)) Bernoulli trials, consumed one
/// per playing session. The fired-trial distribution is identical to
/// per-trial coin flips; only the RNG stream layout differs (one stream
/// per link instead of draws interleaved in the arrival stream).
class StallSampler {
 public:
  StallSampler() = default;
  StallSampler(double per_trial_probability, std::uint64_t seed,
               double min_stall_seconds = 0.5,
               double max_stall_seconds = 3.0);

  bool enabled() const noexcept { return probability_ > 0.0; }

  /// Consume one Bernoulli(p) trial; true when the event fires.
  bool step() noexcept {
    if (probability_ <= 0.0) return false;
    if (--trials_left_ > 0) return false;
    draw_gap();
    return true;
  }

  /// Consume `trials` Bernoulli(p) trials at once, calling fn(k) for each
  /// trial index k in [0, trials) that fires. Bit-compatible with calling
  /// step() `trials` times: the same gaps are consumed from the same
  /// stream. The pool's stall pass hands the whole playing range here, so
  /// the cost is O(fires) instead of one decrement+branch per playing
  /// session per tick.
  template <typename F>
  void step_block(std::uint64_t trials, F&& fn) {
    if (probability_ <= 0.0) return;
    std::uint64_t consumed = 0;
    while (trials - consumed >= trials_left_) {
      consumed += trials_left_;
      draw_gap();  // same stream position as the step() that fired
      fn(consumed - 1);
    }
    trials_left_ -= trials - consumed;
  }

  /// Stall duration for a fired event (uniform, same stream as the gaps).
  double draw_stall_seconds() noexcept {
    return rng_.uniform(min_stall_seconds_, max_stall_seconds_);
  }

 private:
  void draw_gap() noexcept;

  double probability_ = 0.0;
  double min_stall_seconds_ = 0.5;
  double max_stall_seconds_ = 3.0;
  std::uint64_t trials_left_ = 0;
  stats::BatchedRng rng_;
};

class SessionPool {
 public:
  /// `policies` is the dispatch table Arrival::policy indexes into (the
  /// cluster resolves named TreatmentPolicies to one AbrPolicy per arm).
  /// At most 255 entries; must be non-empty.
  SessionPool(const SessionParams& params, std::vector<AbrPolicy> policies);

  /// Everything a new session needs. `ladder` is not owned: it must stay
  /// valid (and at a stable address) for the session's lifetime — the
  /// cluster points sessions at its per-run ladder cache.
  struct Arrival {
    std::uint64_t id = 0;
    std::uint64_t account = 0;
    std::uint8_t link = 0;
    bool treated = false;
    double start_time = 0.0;
    double duration = 0.0;
    const BitrateLadder* ladder = nullptr;
    double patience = 0.0;
    double access_rate_bps = 0.0;
    /// Index into the pool's policy table (constructor argument).
    std::uint8_t policy = 0;
  };

  /// Append a session; returns its slot index (valid until the next tick
  /// pass — partition maintenance may move slots).
  std::size_t add(const Arrival& arrival);

  void reserve(std::size_t sessions);
  std::size_t size() const noexcept { return state_.size(); }
  bool empty() const noexcept { return state_.empty(); }

  // ----- tick passes (each streams the arrays once) ------------------

  /// Aggregates the demand-gather pass computes alongside the per-slot
  /// demand vector, so the allocator need not re-scan it for them.
  struct DemandTotals {
    double desired_load_bps = 0.0;  ///< congestion-free sustained caps
    double demand_sum_bps = 0.0;    ///< sum of the written demands
    std::size_t demand_positive = 0;  ///< count of strictly positive demands
  };

  /// Pass 1: write per-slot instantaneous demand (b/s) into `demands`
  /// (resized to size(); capacity reused across ticks) and accumulate the
  /// aggregate congestion-free desired load plus the demand sum/count the
  /// water-fill allocator seeds from. Restores the state partition first
  /// (non-const): the grants computed against `demands` are indexed by
  /// the slot order this call establishes.
  void gather_demand(std::vector<double>& demands, DemandTotals& totals);

  /// Pass 3 (pass 2 is the link's allocation): integrate one tick given
  /// the per-slot grants and the link's RTT/loss. `alloc` must be indexed
  /// by the slot order of the preceding gather_demand (no add() in
  /// between). `stalls`, when enabled, consumes one skip-sampling trial
  /// per session that ends the tick in kPlaying, in partitioned slot
  /// order.
  void advance_all(double dt, std::span<const double> alloc, double rtt,
                   double loss, StallSampler* stalls = nullptr);

  /// Pass 4: hand every kDone slot's finalized record to `sink` (bumping
  /// `completed`) and recycle the slots by popping the done bucket off
  /// the tail. Streaming consumers (core/cell_accumulator.h) fold each
  /// record as it retires; collectors push it onto a vector.
  void retire_finished(const std::function<void(const SessionRecord&)>& sink,
                       std::uint64_t& completed);

  /// Finalize every still-active slot into `sink` (partial telemetry is
  /// valid; the paper's datasets flush the same way at the experiment
  /// boundary).
  void flush_all(const std::function<void(const SessionRecord&)>& sink) const;

  // ----- per-slot accessors (tests observe slot state through these) --

  SessionState state(std::size_t i) const noexcept { return state_[i]; }
  double buffer_seconds(std::size_t i) const noexcept {
    return buffer_seconds_[i];
  }
  double current_bitrate(std::size_t i) const noexcept { return bitrate_[i]; }

  double demand(std::size_t i) const noexcept {
    switch (state_[i]) {
      case SessionState::kStartup:
      case SessionState::kRebuffering:
        return access_rate_bps_[i];
      case SessionState::kPlaying:
        // On-off chunked downloads: fetch at full access speed while
        // there is room for another chunk, then idle.
        return buffer_seconds_[i] + params_.chunk_seconds <=
                       params_.max_buffer_seconds
                   ? access_rate_bps_[i]
                   : 0.0;
      case SessionState::kDone:
        return 0.0;
    }
    return 0.0;
  }

  /// Sustained consumption rate (b/s) absent congestion: capped ladder
  /// top x overhead, access-limited. Precomputed at add() — the value is
  /// per-session constant, so the gather pass never chases the ladder.
  double sustained_load(std::size_t i) const noexcept {
    return state_[i] == SessionState::kDone ? 0.0 : sustained_cap_[i];
  }

  /// Inject a playback stall unrelated to the network (content/client
  /// heterogeneity). No-op unless the session is playing.
  void inject_spurious_rebuffer(std::size_t i, double seconds) noexcept;

  /// Produce the telemetry row for slot `i` (does not retire it).
  SessionRecord finalize(std::size_t i) const;

  /// Validate every pool invariant the partitioned fast path relies on:
  /// equal array lengths, bucket counts consistent with per-slot
  /// state/policy bytes (and, when the partition is clean, physically
  /// grouped), cached ladder rung pointers non-null with a sane top
  /// index, policy indices inside the dispatch table, the cached
  /// perceptual-quality snapshot matching the current bitrate, the cached
  /// rung index naming the bitrate (and a hybrid slot's buffer interval
  /// equal to its threshold-table entry), and RTT reference snapshots
  /// within the pool's cumulative counters. Throws
  /// std::logic_error naming the violated invariant. Debug builds run it
  /// after every advance/retire; tests call it directly in any build.
  void check_invariants() const;

 private:
  /// Re-run slot i's policy on its current state and take the rung.
  void select_bitrate(std::size_t i) noexcept;
  /// Cache rung k as slot i's selection and switch to it if its rate
  /// differs from the current bitrate (equal rungs never count a switch).
  void take_rung(std::size_t i, std::size_t k) noexcept;
  /// Hybrid select: the map on the current buffer, plus the exact buffer
  /// interval of the chosen rung from `thresholds` (the slot's table).
  void select_hybrid(std::size_t i, const AbrConfig& config,
                     const double* thresholds) noexcept;
  /// Slot i's threshold table under policy p.
  const double* rung_thresholds(std::size_t p, std::size_t i) const noexcept;
  /// `quality` must equal perceptual_quality(next) — callers pass the
  /// cached per-rung score so the switch path never recomputes it.
  void apply_bitrate_switch(std::size_t i, double next,
                            double quality) noexcept;
  /// Restore the physical bucket grouping after adds/transitions marked
  /// it dirty. O(size) byte scan + one all-array swap per misplaced slot.
  void repartition();
  /// The one list of per-slot arrays: calls f(array, name) for each, so
  /// reserve, swap_slots, truncate and check_invariants cannot disagree
  /// about which arrays a slot spans.
  template <typename Pool, typename F>
  static void for_each_slot_array(Pool& pool, F&& f);
  void swap_slots(std::size_t a, std::size_t b) noexcept;
  void truncate(std::size_t new_size);
  std::size_t bucket_of(std::size_t i) const noexcept;
  void set_state(std::size_t i, SessionState to) noexcept;

  SessionParams params_;
  /// Resolved policy dispatch table: per-slot `policy_` bytes index here,
  /// and select_bitrate switches on the entry's one-byte AbrKind — no
  /// virtual call anywhere in the tick.
  std::vector<AbrPolicy> policies_;
  /// True when any policy needs the per-slot throughput EWMA (kRate);
  /// default hybrid-only pools skip that accumulation entirely.
  bool track_rate_ = false;
  /// Per-policy EWMA coefficient dt/(tau+dt), refreshed each advance_all.
  std::vector<double> rate_alpha_;
  /// Hybrid policies' rung thresholds, [policy][top index] -> the
  /// abr_rung_thresholds table, filled at add() up to the longest ladder
  /// seen so far.
  std::vector<std::vector<std::vector<double>>> rung_thresholds_;

  // Identity: only touched at add/finalize/swap, so it stays AoS.
  struct Identity {
    std::uint64_t id;
    std::uint64_t account;
    double start_time;
    std::uint8_t link;
    bool treated;
  };
  std::vector<Identity> identity_;

  // Hot per-tick state, one contiguous array per field.
  std::vector<SessionState> state_;
  std::vector<double> clock_;
  std::vector<double> buffer_seconds_;
  std::vector<double> bitrate_;
  std::vector<double> quality_;  ///< perceptual_quality(bitrate_), cached
  std::vector<double> startup_bytes_left_;
  std::vector<double> played_seconds_;
  std::vector<double> duration_;
  std::vector<double> patience_;
  std::vector<double> access_rate_bps_;
  std::vector<double> sustained_cap_;
  // The session's ladder, flattened at add(): raw rung array + top index
  // (as double, premultiplied shape for the ABR interpolation), so bitrate
  // selection is one indexed load instead of two pointer chases through a
  // BitrateLadder and its vector.
  std::vector<const double*> rungs_;
  /// Parallel per-rung perceptual-quality array of the same ladder
  /// (BitrateLadder::rung_quality) — switches look the score up by rung
  /// index instead of recomputing the log curve.
  std::vector<const double*> rung_quality_;
  std::vector<double> rung_top_index_;
  std::vector<std::uint8_t> policy_;
  /// Cached ABR pick: rung index (-1 until the first selection, since the
  /// startup bitrate need not be a rung; otherwise bitrate_ ==
  /// rungs_[rung_index_]) and, for hybrid slots, the buffer interval
  /// [rung_lo_, rung_hi_) that maps to it — empty (+inf, -inf) while the
  /// index is -1 and for the other strategies, which never read it.
  std::vector<std::int32_t> rung_index_;
  std::vector<double> rung_lo_;
  std::vector<double> rung_hi_;
  /// Smoothed goodput estimate (b/s), maintained only when track_rate_.
  std::vector<double> ewma_rate_;

  // Telemetry accumulators.
  std::vector<double> delivered_bytes_;
  std::vector<double> retransmitted_bytes_;
  std::vector<double> hungry_bytes_;
  std::vector<double> hungry_seconds_;
  std::vector<double> min_rtt_;
  std::vector<double> play_delay_;
  std::vector<double> rebuffer_seconds_;
  std::vector<std::uint32_t> rebuffer_count_;
  std::vector<std::uint32_t> switches_;
  std::vector<std::uint8_t> cancelled_;

  // Per-session RTT mean without per-session per-tick accumulation: the
  // link RTT is one value per tick, so the pool keeps cumulative (sum,
  // ticks) counters bumped once per advance_all and each session stores
  // its entry snapshot. While alive, a session's accrual is cum - ref;
  // at the kDone transition the refs are frozen into totals.
  double cum_rtt_sum_ = 0.0;
  std::uint64_t cum_rtt_ticks_ = 0;
  std::vector<double> rtt_sum_ref_;
  std::vector<std::uint64_t> rtt_ticks_ref_;

  // Bitrate/quality time integrals accrued lazily: bitrate is piecewise
  // constant in played-seconds, so the integral advances only when the
  // ABR switches (and at finalize), not every playing tick.
  std::vector<double> played_marker_;
  std::vector<double> bitrate_time_integral_;
  std::vector<double> quality_time_integral_;

  // ----- state partition ---------------------------------------------
  // Buckets, in physical slot order: one (state, policy) bucket per
  // alive state — playing first (hottest), grouped by policy within the
  // state so the ABR pass runs one tight loop per policy — then a single
  // done bucket at the tail (so retiring is a pop, not a swap-erase).
  // bucket_count_ is maintained eagerly at add/transition; bucket_begin_
  // (prefix sums, one past-the-end entry) is rebuilt by repartition().
  std::vector<std::size_t> bucket_count_;
  std::vector<std::size_t> bucket_begin_;
  std::vector<std::size_t> bucket_cursor_;  ///< repartition scratch
  bool partition_dirty_ = false;

  // Tick scratch (capacity reused; the steady state allocates nothing):
  // per-slot goodput and a list of slot indices for the sparse passes.
  std::vector<double> good_bytes_;
  std::vector<std::uint32_t> sparse_slots_;
};

}  // namespace xp::video
