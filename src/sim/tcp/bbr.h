// BBR (v1-style) congestion control: model-based, paced, and largely
// loss-blind — the combination that makes it unfair to Cubic in shallow
// buffers, which Section 3.3 uses to demonstrate two-sided A/B bias (both
// "BBR beats Cubic" and "Cubic beats BBR" at 10% allocations, TTE ~ 0).
//
// This is a faithful simplification of the published state machine:
// STARTUP (2.885x gains, full-pipe detection over 3 rounds) -> DRAIN ->
// PROBE_BW (8-phase gain cycle) with PROBE_RTT every 10 s. Bottleneck
// bandwidth is a windowed max of delivery-rate samples; min RTT a windowed
// min. Loss events do not change the model (as in BBRv1).
#pragma once

#include "sim/tcp/congestion_control.h"
#include "sim/tcp/windowed_filter.h"

namespace xp::sim {

class BbrCc final : public CongestionControl {
 public:
  explicit BbrCc(const CcConfig& config);

  void on_ack(const AckSample& sample) override;
  void on_loss(Time now) override;
  void on_timeout(Time now) override;
  double cwnd_bytes() const override;
  double pacing_rate_bps(double srtt_s) const override;
  bool must_pace() const override { return true; }

  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };
  State state() const noexcept { return state_; }
  double bottleneck_bw_bps() const noexcept;
  double min_rtt_s() const noexcept;

 private:
  double bdp_bytes_est() const noexcept;
  void check_full_pipe(Time now);
  void maybe_enter_probe_rtt(Time now);
  void advance_probe_bw_phase(Time now);
  void update_round(const AckSample& sample);

  CcConfig config_;
  State state_ = State::kStartup;

  MaxFilter bw_filter_;        // bits/s, window set from min_rtt rounds
  MinFilter rtt_filter_;       // seconds, 10 s window

  double pacing_gain_ = 2.885;
  double cwnd_gain_ = 2.885;

  // Round tracking (a round = one window's worth of data delivered).
  std::uint64_t next_round_delivered_ = 0;
  std::uint64_t round_count_ = 0;
  bool round_start_ = false;

  // Full-pipe detection.
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;
  bool full_pipe_ = false;

  // PROBE_BW gain cycling.
  int probe_bw_phase_ = 0;
  Time phase_start_ = 0.0;

  // PROBE_RTT.
  Time probe_rtt_done_at_ = kNoTime;
  Time min_rtt_stamp_ = 0.0;
  double min_rtt_value_ = 0.0;

  // Loss response (BBRv1 keeps its model but obeys packet conservation in
  // recovery and collapses cwnd after an RTO until delivery resumes).
  bool conservation_ = false;
  std::uint64_t conservation_until_round_ = 0;
  double conservation_cwnd_ = 0.0;
  bool timeout_collapse_ = false;

  std::uint64_t inflight_bytes_ = 0;
};

}  // namespace xp::sim
