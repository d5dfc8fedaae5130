#include "sim/tcp/connection.h"

#include <algorithm>
#include <utility>

namespace xp::sim {

namespace {

/// Insert [seq, seq+1) into a merged-range map; returns the start key of
/// the range that now contains seq, and whether anything changed.
std::pair<std::uint64_t, bool> insert_segment(
    std::map<std::uint64_t, std::uint64_t>& ranges, std::uint64_t seq) {
  auto next = ranges.lower_bound(seq);
  if (next != ranges.begin()) {
    auto prev = std::prev(next);
    if (prev->second > seq) return {prev->first, false};  // already covered
    if (prev->second == seq) {
      // Extend the previous range; maybe merge with next.
      prev->second = seq + 1;
      if (next != ranges.end() && next->first == seq + 1) {
        prev->second = next->second;
        ranges.erase(next);
      }
      return {prev->first, true};
    }
  }
  if (next != ranges.end() && next->first == seq + 1) {
    // Prepend to the following range (re-key).
    const std::uint64_t end = next->second;
    ranges.erase(next);
    ranges.emplace(seq, end);
    return {seq, true};
  }
  if (next != ranges.end() && next->first == seq) return {seq, false};
  ranges.emplace(seq, seq + 1);
  return {seq, true};
}

/// True when `seq` is contained in a merged-range map.
bool contains(const std::map<std::uint64_t, std::uint64_t>& ranges,
              std::uint64_t seq) {
  auto it = ranges.upper_bound(seq);
  if (it == ranges.begin()) return false;
  return std::prev(it)->second > seq;
}

}  // namespace

TcpConnection::TcpConnection(Simulator& sim, const ConnectionConfig& config,
                             TransmitFn transmit)
    : sim_(sim),
      config_(config),
      transmit_(std::move(transmit)),
      rtt_(config.min_rto),
      ack_lane_(sim.add_lane()) {
  CcConfig cc_config;
  cc_config.mss_bytes = config.mss_bytes;
  cc_config.initial_cwnd_packets = config.initial_cwnd_packets;
  cc_ = make_congestion_control(config.algorithm, cc_config);
  pacing_ = config.pacing || cc_->must_pace();
}

TcpConnection::~TcpConnection() {
  if (rto_armed_) sim_.cancel(rto_event_);
  if (pace_event_armed_) sim_.cancel(pace_event_);
  if (delack_armed_) sim_.cancel(delack_event_);
}

void TcpConnection::start() {
  if (started_) return;
  started_ = true;
  rcv_delivered_seen_time_ = sim_.now();
  pace_next_ = sim_.now();
  try_send();
}

std::uint64_t TcpConnection::pipe_segments() const noexcept {
  // FACK pipe: data above the forward-most SACK is in flight; holes below
  // it are presumed lost (minus what we already retransmitted).
  const std::uint64_t fack = std::clamp(fack_, snd_una_, snd_nxt_);
  return (snd_nxt_ - fack) + scoreboard_.retransmitted_count();
}

std::uint64_t TcpConnection::usable_window_bytes() const noexcept {
  auto window = static_cast<std::uint64_t>(cc_->cwnd_bytes());
  if (config_.max_window_packets > 0) {
    window = std::min<std::uint64_t>(
        window, std::uint64_t{config_.max_window_packets} * wire_bytes());
  }
  return window;
}

bool TcpConnection::pace_gate() {
  if (!pacing_) return false;
  const Time now = sim_.now();
  if (now < pace_next_) {
    if (!pace_event_armed_) {
      pace_event_armed_ = true;
      pace_event_ = sim_.schedule_at(pace_next_, [this]() {
        pace_event_armed_ = false;
        try_send();
      });
    }
    return true;
  }
  const double rate = cc_->pacing_rate_bps(rtt_.smoothed_rtt());
  const Time interval = rate > 0.0 && rate < 1e18
                            ? static_cast<Time>(wire_bytes()) * 8.0 / rate
                            : 0.0;
  pace_next_ = std::max(pace_next_, now) + interval;
  return false;
}

std::uint64_t TcpConnection::next_lost_segment() {
  // Lowest hole below the loss horizon not yet retransmitted. Normally the
  // horizon is FACK minus a reordering margin (the SACK analog of three
  // dupACKs); after an RTO every unsacked segment below rto_recover_seq_
  // is eligible.
  std::uint64_t limit = 0;
  if (fack_ >= snd_una_ + kLossThreshold) limit = fack_ - kLossThreshold;
  if (rto_recovery_) limit = std::max(limit, rto_recover_seq_);
  return scoreboard_.next_lost(snd_una_, limit);
}

void TcpConnection::try_send() {
  const std::uint64_t window = usable_window_bytes();
  while (pipe_segments() * wire_bytes() < window) {
    // Retransmissions take priority over new data (RFC 6675 NextSeg).
    const std::uint64_t lost = next_lost_segment();
    if (lost != SackScoreboard::kNone) {
      if (pace_gate()) return;
      scoreboard_.mark_retransmitted(lost);
      send_segment(lost, /*retransmit=*/true);
      continue;
    }
    if (pace_gate()) return;
    send_segment(snd_nxt_, /*retransmit=*/false);
    ++snd_nxt_;
  }
}

void TcpConnection::send_segment(std::uint64_t seq, bool retransmit) {
  Packet packet;
  packet.flow = config_.id;
  packet.seq = seq;
  packet.size_bytes = static_cast<std::uint32_t>(wire_bytes());
  packet.sent_at = sim_.now();
  packet.retransmit = retransmit;
  packet.delivered_at_send = rcv_delivered_seen_;
  packet.delivered_time_at_send = rcv_delivered_seen_time_;

  stats_.bytes_sent += config_.mss_bytes;
  ++stats_.segments_sent;
  if (retransmit) {
    stats_.bytes_retransmitted += config_.mss_bytes;
    ++stats_.segments_retransmitted;
  }
  transmit_(packet);
  if (!rto_armed_) arm_rto();
}

void TcpConnection::merge_sack_blocks(const Ack& ack) {
  for (std::uint8_t i = 0; i < ack.sack_count; ++i) {
    const SackRange& block = ack.sack[i];
    const std::uint64_t start = std::max(block.start, snd_una_);
    if (start >= block.end) continue;
    scoreboard_.mark_sacked(start, block.end);
    fack_ = std::max(fack_, block.end);
  }
}

void TcpConnection::on_ack_at_sender(const Ack& ack) {
  const Time now = sim_.now();

  const bool advanced = ack.ack_seq > snd_una_;
  std::uint64_t newly_acked_segments = 0;
  if (advanced) {
    newly_acked_segments = ack.ack_seq - snd_una_;
    snd_una_ = ack.ack_seq;
    stats_.bytes_acked += newly_acked_segments * config_.mss_bytes;
    delivered_bytes_ += newly_acked_segments * wire_bytes();
    rtt_.reset_backoff();
  }

  // Update scoreboard and receiver-truth delivery counter.
  merge_sack_blocks(ack);
  if (advanced) {
    scoreboard_.trim_below(snd_una_);
    fack_ = std::max(fack_, snd_una_);
  }
  if (ack.rcv_delivered_segments > rcv_delivered_seen_) {
    rcv_delivered_seen_ = ack.rcv_delivered_segments;
    rcv_delivered_seen_time_ = now;
  }

  if (advanced) {
    // RTT sample (Karn: only from non-retransmitted segments).
    double rtt_sample = 0.0;
    if (!ack.echo_retransmit) {
      rtt_sample = now - ack.echo_sent_at;
      rtt_.add_sample(rtt_sample);
      ++stats_.rtt_samples;
      stats_.rtt_sum += rtt_sample;
      stats_.min_rtt = std::min(stats_.min_rtt, rtt_sample);
      stats_.max_rtt = std::max(stats_.max_rtt, rtt_sample);
    }

    // Delivery-rate sample from the receiver-truth counter over the
    // interval this segment was in flight; sub-min-RTT intervals are
    // discarded as in the delivery-rate-estimation draft.
    double delivery_rate = 0.0;
    const Time interval = now - ack.delivered_time_at_send;
    const Time min_interval = rtt_.has_sample() ? rtt_.min_rtt() : 0.0;
    if (interval > 0.0 && interval >= min_interval &&
        ack.rcv_delivered_segments > ack.delivered_at_send) {
      delivery_rate = static_cast<double>(ack.rcv_delivered_segments -
                                          ack.delivered_at_send) *
                      static_cast<double>(wire_bytes()) * 8.0 / interval;
    }

    if (in_recovery_ && snd_una_ >= recover_seq_) {
      in_recovery_ = false;
    }
    if (rto_recovery_ && snd_una_ >= rto_recover_seq_) {
      rto_recovery_ = false;
    }

    AckSample sample;
    sample.now = now;
    sample.newly_acked_bytes = newly_acked_segments * config_.mss_bytes;
    sample.rtt_s = rtt_sample;
    sample.delivery_rate_bps = delivery_rate;
    sample.inflight_bytes = pipe_segments() * wire_bytes();
    sample.delivered_bytes = delivered_bytes_;
    cc_->on_ack(sample);

    // Restart the retransmission timer for remaining in-flight data.
    if (rto_armed_) {
      sim_.cancel(rto_event_);
      rto_armed_ = false;
    }
    if (snd_nxt_ > snd_una_) arm_rto();
  }

  // SACK-based loss detection: a hole sufficiently far below the forward
  // edge starts a recovery episode (once per window, like 3 dupACKs).
  if (!in_recovery_ && next_lost_segment() != SackScoreboard::kNone) {
    in_recovery_ = true;
    recover_seq_ = snd_nxt_;
    ++stats_.fast_retransmits;
    cc_->on_loss(now);
  }

  try_send();
}

void TcpConnection::arm_rto() {
  rto_armed_ = true;
  rto_event_ = sim_.schedule_in(rtt_.rto(), [this]() { on_rto(); });
}

void TcpConnection::on_rto() {
  rto_armed_ = false;
  if (snd_nxt_ == snd_una_) return;

  ++stats_.timeouts;
  rtt_.backoff();
  cc_->on_timeout(sim_.now());

  // RFC 6675-style timeout: keep the SACK scoreboard, forget which holes
  // were already retransmitted (those retransmissions are presumed lost),
  // and make every unsacked segment up to snd_nxt_ retransmittable. The
  // congestion window collapse (cc_->on_timeout) paces the repair.
  in_recovery_ = false;
  scoreboard_.forget_retransmissions();
  rto_recovery_ = true;
  rto_recover_seq_ = snd_nxt_;
  arm_rto();
  try_send();
}

// --- Receiver side ---

bool TcpConnection::receiver_has(std::uint64_t seq) const {
  if (seq < rcv_nxt_) return true;
  return contains(rcv_ranges_, seq);
}

void TcpConnection::on_data_at_receiver(const Packet& packet) {
  const bool duplicate = receiver_has(packet.seq);
  const bool in_order = packet.seq == rcv_nxt_;
  const std::uint64_t rcv_before = rcv_nxt_;

  if (!duplicate) {
    ++rcv_delivered_count_;
    const auto [range_start, _] = insert_segment(rcv_ranges_, packet.seq);
    // Track the most recently touched ranges for SACK block selection.
    std::array<std::uint64_t, 4> updated{};
    std::uint8_t count = 0;
    updated[count++] = range_start;
    for (std::uint8_t i = 0; i < recent_range_count_ && count < 4; ++i) {
      if (recent_range_starts_[i] != range_start) {
        updated[count++] = recent_range_starts_[i];
      }
    }
    recent_range_starts_ = updated;
    recent_range_count_ = count;

    // Advance the cumulative edge through any now-contiguous prefix.
    if (in_order) {
      auto first = rcv_ranges_.begin();
      rcv_nxt_ = first->second;
      rcv_ranges_.erase(first);
    }
  }

  const bool filled_gap = rcv_nxt_ > rcv_before + 1;
  const bool out_of_order_pending = !rcv_ranges_.empty();
  const bool must_ack_now = duplicate || !in_order || filled_gap ||
                            out_of_order_pending || config_.ack_every <= 1 ||
                            ++unacked_segments_ >= config_.ack_every;
  if (must_ack_now) {
    emit_ack(packet);
    return;
  }

  // Defer: remember the newest trigger for RTT echoing, arm flush timer.
  pending_ack_trigger_ = packet;
  if (!delack_armed_) {
    delack_armed_ = true;
    delack_event_ = sim_.schedule_in(config_.delayed_ack_timeout, [this]() {
      delack_armed_ = false;
      if (unacked_segments_ > 0) emit_ack(pending_ack_trigger_);
    });
  }
}

void TcpConnection::emit_ack(const Packet& trigger) {
  unacked_segments_ = 0;
  if (delack_armed_) {
    sim_.cancel(delack_event_);
    delack_armed_ = false;
  }

  Ack ack;
  ack.flow = trigger.flow;
  ack.ack_seq = rcv_nxt_;
  ack.for_seq = trigger.seq;
  ack.echo_sent_at = trigger.sent_at;
  ack.echo_retransmit = trigger.retransmit;
  ack.delivered_at_send = trigger.delivered_at_send;
  ack.delivered_time_at_send = trigger.delivered_time_at_send;
  ack.rcv_delivered_segments = rcv_delivered_count_;
  ack.arrived_at = sim_.now();

  // SACK blocks: most recently touched ranges first (RFC 2018).
  for (std::uint8_t i = 0; i < recent_range_count_ && ack.sack_count < 4;
       ++i) {
    const auto it = rcv_ranges_.find(recent_range_starts_[i]);
    if (it == rcv_ranges_.end()) continue;  // absorbed by rcv_nxt_ or merged
    ack.sack[ack.sack_count++] = SackRange{it->first, it->second};
  }

  sim_.schedule_in(ack_lane_, config_.reverse_delay,
                   [this, ack]() { on_ack_at_sender(ack); });
}

}  // namespace xp::sim
