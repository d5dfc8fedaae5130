// The sender's SACK scoreboard: which segments above the cumulative ACK
// the receiver has SACKed, which holes were retransmitted and not yet
// confirmed, and RFC 6675's NextSeg search for the lowest hole to repair.
//
// Both sets are merged [start, end) ranges, the range view of a connection
// analyseTCP's RangeManager keeps. The search is amortized O(log R) in the
// number of ranges R: it jumps over a SACKed or a retransmitted range in
// one step, and it resumes from a cursor below which every segment is
// known to be SACKed or retransmitted. Marking and trimming only ever add
// to that knowledge; forget_retransmissions() (an RTO) is the one mutation
// that can make a lower segment eligible again, so it alone resets the
// cursor.
#pragma once

#include <cstdint>
#include <map>

namespace xp::sim {

class SackScoreboard {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// Merge the SACK block [start, end). A SACKed retransmission is
  /// confirmed delivered and leaves the retransmitted set.
  void mark_sacked(std::uint64_t start, std::uint64_t end);
  /// Record a retransmission of segment `seq`.
  void mark_retransmitted(std::uint64_t seq);
  /// Drop every segment below the cumulative ACK `snd_una`.
  void trim_below(std::uint64_t snd_una);
  /// RTO: presume every outstanding retransmission lost.
  void forget_retransmissions();

  /// Lowest segment in [snd_una, limit) neither SACKed nor retransmitted,
  /// or kNone when there is none.
  std::uint64_t next_lost(std::uint64_t snd_una, std::uint64_t limit);

  /// Segments in the SACKed set.
  std::uint64_t sacked_count() const noexcept { return sacked_count_; }
  /// Segments retransmitted and not yet cumulatively ACKed or SACKed.
  std::uint64_t retransmitted_count() const noexcept { return retx_count_; }

 private:
  using Ranges = std::map<std::uint64_t, std::uint64_t>;

  Ranges sacked_;
  std::uint64_t sacked_count_ = 0;
  Ranges retx_;  ///< usually tiny
  std::uint64_t retx_count_ = 0;
  /// Every segment in [snd_una, cursor_) is SACKed or retransmitted.
  std::uint64_t cursor_ = 0;
};

}  // namespace xp::sim
