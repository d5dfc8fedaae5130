// TCP Cubic congestion control (RFC 8312 window growth with fast
// convergence and the TCP-friendly region). The loss-based backoff is what
// BBR exploits in Section 3.3's unfair coexistence.
#pragma once

#include "sim/tcp/congestion_control.h"

namespace xp::sim {

class CubicCc final : public CongestionControl {
 public:
  explicit CubicCc(const CcConfig& config);

  void on_ack(const AckSample& sample) override;
  void on_loss(Time now) override;
  void on_timeout(Time now) override;
  double cwnd_bytes() const override { return cwnd_; }
  double pacing_rate_bps(double srtt_s) const override;

  bool in_slow_start() const noexcept { return cwnd_ < ssthresh_; }

 private:
  /// Cubic target window at time `t` seconds since the epoch started.
  double cubic_target(double t) const noexcept;

  CcConfig config_;
  double cwnd_;
  double ssthresh_;
  double min_cwnd_;

  double w_max_ = 0.0;        ///< window before the last reduction (bytes)
  Time epoch_start_ = kNoTime;
  double k_ = 0.0;            ///< time to reach w_max again (seconds)
  double w_est_ = 0.0;        ///< TCP-friendly (Reno-equivalent) window
  double srtt_cache_ = 0.0;   ///< last RTT for the friendly-region slope
  double min_rtt_ = 0.0;      ///< for the HyStart-style delay exit
};

}  // namespace xp::sim
