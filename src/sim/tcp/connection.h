// A simulated TCP connection: bulk sender + receiver endpoints.
//
// The sender implements window-based transmission with optional pacing,
// SACK-based loss recovery (RFC 2018 blocks with FACK-style loss
// detection and pipe accounting, over the SackScoreboard), RFC 6675
// retransmission timeouts that keep the scoreboard and make every unSACKed
// segment retransmittable, Karn's rule for RTT sampling, and
// receiver-truth delivery-rate samples for rate-based congestion control.
// The receiver generates cumulative ACKs with SACK blocks — immediately on
// out-of-order data, every `ack_every` segments otherwise (stretch ACKs, as
// GRO produces on real 10G receivers) — and tracks out-of-order ranges.
//
// Wiring: the scenario provides a `transmit` function that injects data
// packets into the forward path (the congested link) and a fixed
// `reverse_delay` that models the uncongested ACK path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "sim/packet.h"
#include "sim/simulator.h"
#include "sim/tcp/congestion_control.h"
#include "sim/tcp/rtt_estimator.h"
#include "sim/tcp/scoreboard.h"

namespace xp::sim {

struct ConnectionConfig {
  FlowId id = 0;
  CcAlgorithm algorithm = CcAlgorithm::kReno;
  /// Enable sender pacing (BBR paces regardless).
  bool pacing = false;
  std::uint32_t mss_bytes = 1448;
  /// Per-packet wire overhead (IP + TCP headers).
  std::uint32_t header_bytes = 52;
  std::uint32_t initial_cwnd_packets = 10;
  /// One-way delay of the (uncongested) ACK return path, seconds.
  Time reverse_delay = 0.001;
  /// Floor on the retransmission timeout.
  Time min_rto = 0.2;
  /// Cap on in-flight segments (models socket buffer / rwnd). 0 = none.
  std::uint32_t max_window_packets = 0;
  /// Generate one cumulative ACK per `ack_every` in-order segments
  /// (delayed/stretch ACKs). Out-of-order arrivals always ACK immediately.
  std::uint32_t ack_every = 1;
  /// Flush timer for a pending delayed ACK. GRO-style coalescing flushes
  /// per interrupt, far faster than classic delayed ACKs; keep this well
  /// under the RTT or small windows throttle on the flush timer.
  Time delayed_ack_timeout = 0.001;
};

/// Counters exposed for experiment metrics. Reset at warmup boundaries so
/// measurements cover steady state only.
struct ConnectionStats {
  std::uint64_t bytes_acked = 0;        ///< goodput (payload bytes)
  std::uint64_t bytes_sent = 0;         ///< payload bytes incl. retransmits
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t fast_retransmits = 0;   ///< SACK-triggered recovery entries
  std::uint64_t timeouts = 0;
  std::uint64_t rtt_samples = 0;
  double rtt_sum = 0.0;                  ///< for mean RTT
  double min_rtt = 1e9;
  double max_rtt = 0.0;

  double mean_rtt() const noexcept {
    return rtt_samples == 0 ? 0.0 : rtt_sum / static_cast<double>(rtt_samples);
  }
  double retransmit_fraction() const noexcept {
    return bytes_sent == 0
               ? 0.0
               : static_cast<double>(bytes_retransmitted) /
                     static_cast<double>(bytes_sent);
  }
};

class TcpConnection {
 public:
  using TransmitFn = std::function<void(const Packet&)>;

  TcpConnection(Simulator& sim, const ConnectionConfig& config,
                TransmitFn transmit);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Begin the (infinite) bulk transfer at the current simulation time.
  void start();

  /// Forward-path delivery: a data packet reached the receiver endpoint.
  void on_data_at_receiver(const Packet& packet);

  FlowId id() const noexcept { return config_.id; }
  const ConnectionConfig& config() const noexcept { return config_; }
  const ConnectionStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = ConnectionStats{}; }

  const CongestionControl& congestion_control() const noexcept { return *cc_; }
  const RttEstimator& rtt() const noexcept { return rtt_; }
  double cwnd_bytes() const noexcept { return cc_->cwnd_bytes(); }
  bool pacing_enabled() const noexcept { return pacing_; }
  bool in_recovery() const noexcept { return in_recovery_; }

  /// Segments currently believed to be in the network (pipe estimate).
  std::uint64_t pipe_segments() const noexcept;

 private:
  // --- Sender side ---
  void try_send();
  void send_segment(std::uint64_t seq, bool retransmit);
  void on_ack_at_sender(const Ack& ack);
  void merge_sack_blocks(const Ack& ack);
  /// Lowest lost-but-not-retransmitted segment, or SackScoreboard::kNone.
  std::uint64_t next_lost_segment();
  bool pace_gate();  ///< true when pacing defers transmission right now
  void arm_rto();
  void on_rto();
  std::uint64_t usable_window_bytes() const noexcept;
  std::uint64_t wire_bytes() const noexcept {
    return config_.mss_bytes + config_.header_bytes;
  }

  /// FACK reordering margin: a hole this many segments below the highest
  /// SACKed segment is declared lost (the SACK analog of 3 dupACKs).
  static constexpr std::uint64_t kLossThreshold = 3;

  Simulator& sim_;
  ConnectionConfig config_;
  TransmitFn transmit_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  bool pacing_ = false;

  // Sequence state (in MSS-sized segments).
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t snd_una_ = 0;

  // SACK state above snd_una_.
  SackScoreboard scoreboard_;
  std::uint64_t fack_ = 0;  ///< one past highest SACKed/ACKed seg

  // Recovery episode bookkeeping.
  bool in_recovery_ = false;
  std::uint64_t recover_seq_ = 0;
  /// After an RTO, every unsacked segment below this is retransmittable
  /// (RFC 6675 keeps the scoreboard across timeouts).
  bool rto_recovery_ = false;
  std::uint64_t rto_recover_seq_ = 0;

  // Delivery accounting: sender's view of the receiver-truth counter.
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t rcv_delivered_seen_ = 0;
  Time rcv_delivered_seen_time_ = 0.0;

  // Pacing.
  Time pace_next_ = 0.0;
  EventId pace_event_ = 0;
  bool pace_event_armed_ = false;

  // RTO timer.
  EventId rto_event_ = 0;
  bool rto_armed_ = false;

  // --- Receiver side ---
  void emit_ack(const Packet& trigger);
  /// True when the receiver has already seen this segment.
  bool receiver_has(std::uint64_t seq) const;

  /// Reverse ACK path: a constant delay, so ACKs arrive in emission order.
  LaneId ack_lane_;
  std::uint64_t rcv_nxt_ = 0;
  /// Out-of-order data held by the receiver, as merged [start, end) ranges.
  std::map<std::uint64_t, std::uint64_t> rcv_ranges_;
  std::uint64_t rcv_delivered_count_ = 0;
  std::uint32_t unacked_segments_ = 0;
  EventId delack_event_ = 0;
  bool delack_armed_ = false;
  Packet pending_ack_trigger_{};
  /// Starts of the ranges most recently touched, newest first (SACK block
  /// selection, mirroring RFC 2018's "most recent first" rule).
  std::array<std::uint64_t, 4> recent_range_starts_{};
  std::uint8_t recent_range_count_ = 0;

  ConnectionStats stats_;
  bool started_ = false;
};

}  // namespace xp::sim
