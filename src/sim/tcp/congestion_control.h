// Pluggable congestion control, mirroring the kernel's modular CC layer.
//
// The three algorithms the paper exercises are provided: Reno (Section 3.1
// parallel connections, 3.2 pacing) and Cubic/BBR (Section 3.3). Windows
// are tracked in bytes; the connection supplies delivery-rate samples for
// rate-based algorithms.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/types.h"

namespace xp::sim {

/// Everything an algorithm may want to know about an arriving ACK.
struct AckSample {
  Time now = 0.0;
  std::uint64_t newly_acked_bytes = 0;
  /// Valid RTT measurement (seconds) or <= 0 when Karn suppressed it.
  double rtt_s = 0.0;
  /// Delivery-rate sample (bits/s) or <= 0 when unavailable.
  double delivery_rate_bps = 0.0;
  /// Bytes in flight after this ACK was processed.
  std::uint64_t inflight_bytes = 0;
  /// Total bytes delivered so far (for round counting).
  std::uint64_t delivered_bytes = 0;
};

enum class CcAlgorithm { kReno, kCubic, kBbr };

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  virtual void on_ack(const AckSample& sample) = 0;
  /// Loss inferred via fast retransmit (triple duplicate ACK).
  virtual void on_loss(Time now) = 0;
  /// Retransmission timeout fired.
  virtual void on_timeout(Time now) = 0;

  /// Current congestion window in bytes.
  virtual double cwnd_bytes() const = 0;

  /// Pacing rate given the smoothed RTT. Loss-based algorithms use the
  /// Linux policy the paper describes: 2*cwnd/RTT in slow start and
  /// 1.2*cwnd/RTT in congestion avoidance. Rate-based algorithms return
  /// their own rate and ignore srtt.
  virtual double pacing_rate_bps(double srtt_s) const = 0;

  /// True when the algorithm is rate-based and requires pacing (BBR).
  virtual bool must_pace() const { return false; }
};

struct CcConfig {
  std::uint32_t mss_bytes = 1448;
  std::uint32_t initial_cwnd_packets = 10;
  /// Pacing-rate multipliers for loss-based CC (Linux defaults per the
  /// paper: 2x in slow start, 1.2x in congestion avoidance).
  double pacing_gain_slow_start = 2.0;
  double pacing_gain_congestion_avoidance = 1.2;
};

std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgorithm algorithm, const CcConfig& config);

}  // namespace xp::sim
