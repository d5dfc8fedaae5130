// Bitrate ladders and perceptual-quality mapping for the video substrate.
//
// The ladder approximates a premium streaming service's encode ladder. The
// bitrate-capping treatment (Section 4) truncates the ladder at a cap,
// which is what reduced traffic ~25% during the COVID-19 capping program.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xp::video {

/// An encode ladder: ascending bitrates in bits/second.
class BitrateLadder {
 public:
  /// Default ladder (bits/s), 235 kb/s .. 16 Mb/s.
  static BitrateLadder standard();

  /// The standard ladder built once per process. Hot paths (the cluster's
  /// per-run ladder cache) use this instead of rebuilding the vector on
  /// every call; standard() returns a copy of it.
  static const BitrateLadder& shared_standard();

  explicit BitrateLadder(std::vector<double> rungs);

  std::span<const double> rungs() const noexcept { return rungs_; }

  /// Per-rung perceptual_quality scores, cached at construction (same
  /// bits as calling perceptual_quality(rung) — the tick's switch path
  /// reads this instead of paying a log() per switch).
  std::span<const double> rung_quality() const noexcept { return quality_; }
  std::size_t size() const noexcept { return rungs_.size(); }
  double lowest() const noexcept { return rungs_.front(); }
  double highest() const noexcept { return rungs_.back(); }

  /// Return a copy of this ladder truncated at `cap` b/s (the treatment).
  BitrateLadder capped(double cap) const;

  /// Return a copy with the top `count` rungs removed, never emptying the
  /// ladder (the service always offers some stream). The top-rung-removal
  /// treatment of video/policy.h.
  BitrateLadder without_top(std::size_t count) const;

 private:
  std::vector<double> rungs_;
  std::vector<double> quality_;  ///< perceptual_quality per rung, cached
};

/// Perceptual quality score in [0, 100] for a bitrate — a concave (log)
/// curve, saturating at high rates like VMAF-style metrics do.
double perceptual_quality(double bitrate_bps) noexcept;

}  // namespace xp::video
