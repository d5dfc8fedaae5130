#include "sim/tcp/scoreboard.h"

#include <algorithm>
#include <iterator>

namespace xp::sim {

namespace {

using Ranges = std::map<std::uint64_t, std::uint64_t>;

/// Merge [start, end) into a merged-range map; returns segments added.
std::uint64_t insert_range(Ranges& ranges, std::uint64_t start,
                           std::uint64_t end) {
  if (start >= end) return 0;
  // Find the first range that could overlap or touch [start, end).
  auto it = ranges.lower_bound(start);
  if (it != ranges.begin() && std::prev(it)->second >= start) --it;
  std::uint64_t new_start = start;
  std::uint64_t new_end = end;
  std::uint64_t covered = 0;
  while (it != ranges.end() && it->first <= new_end) {
    new_start = std::min(new_start, it->first);
    new_end = std::max(new_end, it->second);
    covered += it->second - it->first;
    it = ranges.erase(it);
  }
  ranges.emplace(new_start, new_end);
  return (new_end - new_start) - covered;
}

/// Remove all segments below `floor` from a merged-range map; returns the
/// number of segments removed.
std::uint64_t trim_ranges(Ranges& ranges, std::uint64_t floor) {
  std::uint64_t removed = 0;
  while (!ranges.empty()) {
    auto it = ranges.begin();
    if (it->second <= floor) {
      removed += it->second - it->first;
      ranges.erase(it);
    } else if (it->first < floor) {
      removed += floor - it->first;
      const std::uint64_t end = it->second;
      ranges.erase(it);
      ranges.emplace(floor, end);
      break;
    } else {
      break;
    }
  }
  return removed;
}

/// Remove the intersection of [start, end) from a merged-range map;
/// returns the number of segments removed.
std::uint64_t erase_overlap(Ranges& ranges, std::uint64_t start,
                            std::uint64_t end) {
  if (start >= end) return 0;
  std::uint64_t removed = 0;
  auto it = ranges.lower_bound(start);
  if (it != ranges.begin() && std::prev(it)->second > start) --it;
  while (it != ranges.end() && it->first < end) {
    const std::uint64_t r_start = it->first;
    const std::uint64_t r_end = it->second;
    it = ranges.erase(it);
    const std::uint64_t cut_start = std::max(r_start, start);
    const std::uint64_t cut_end = std::min(r_end, end);
    removed += cut_end - cut_start;
    if (r_start < cut_start) ranges.emplace(r_start, cut_start);
    if (cut_end < r_end) it = ranges.emplace(cut_end, r_end).first;
  }
  return removed;
}

/// Where a forward walk to `seq` starts: the last range starting at or
/// below `seq` (it may end below `seq`), else the first range.
Ranges::const_iterator around(const Ranges& ranges, std::uint64_t seq) {
  const auto it = ranges.upper_bound(seq);
  return it == ranges.begin() ? it : std::prev(it);
}

}  // namespace

void SackScoreboard::mark_sacked(std::uint64_t start, std::uint64_t end) {
  sacked_count_ += insert_range(sacked_, start, end);
  retx_count_ -= erase_overlap(retx_, start, end);
}

void SackScoreboard::mark_retransmitted(std::uint64_t seq) {
  retx_count_ += insert_range(retx_, seq, seq + 1);
}

void SackScoreboard::trim_below(std::uint64_t snd_una) {
  sacked_count_ -= trim_ranges(sacked_, snd_una);
  retx_count_ -= trim_ranges(retx_, snd_una);
}

void SackScoreboard::forget_retransmissions() {
  retx_.clear();
  retx_count_ = 0;
  cursor_ = 0;
}

std::uint64_t SackScoreboard::next_lost(std::uint64_t snd_una,
                                        std::uint64_t limit) {
  std::uint64_t candidate = std::max(snd_una, cursor_);
  if (candidate >= limit) return kNone;
  auto sacked = around(sacked_, candidate);
  auto retx = around(retx_, candidate);
  while (candidate < limit) {
    // Jump past a SACKed or retransmitted range covering the candidate.
    while (sacked != sacked_.end() && sacked->second <= candidate) ++sacked;
    if (sacked != sacked_.end() && sacked->first <= candidate) {
      candidate = sacked->second;
      continue;
    }
    while (retx != retx_.end() && retx->second <= candidate) ++retx;
    if (retx != retx_.end() && retx->first <= candidate) {
      candidate = retx->second;
      continue;
    }
    cursor_ = candidate;
    return candidate;
  }
  // Everything skipped is SACKed or retransmitted, up to and past limit.
  cursor_ = candidate;
  return kNone;
}

}  // namespace xp::sim
