// TCP Reno congestion control (RFC 5681 window arithmetic).
//
// Reno's strict per-connection fairness is the mechanism behind the
// Section 3.1 result: n identical connections each converge to C/n, so an
// application opening two connections gets 2C/n — a 100% "win" in any A/B
// test with zero total treatment effect.
#pragma once

#include "sim/tcp/congestion_control.h"

namespace xp::sim {

class RenoCc final : public CongestionControl {
 public:
  explicit RenoCc(const CcConfig& config);

  void on_ack(const AckSample& sample) override;
  void on_loss(Time now) override;
  void on_timeout(Time now) override;
  double cwnd_bytes() const override { return cwnd_; }
  double pacing_rate_bps(double srtt_s) const override;

  bool in_slow_start() const noexcept { return cwnd_ < ssthresh_; }
  double ssthresh_bytes() const noexcept { return ssthresh_; }

 private:
  CcConfig config_;
  double cwnd_;
  double ssthresh_;
  double min_cwnd_;
  double min_rtt_ = 0.0;  ///< for the HyStart-style delay exit
};

}  // namespace xp::sim
