#include "video/bitrate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace xp::video {

const BitrateLadder& BitrateLadder::shared_standard() {
  static const BitrateLadder ladder(
      {235e3, 375e3, 560e3, 750e3, 1050e3, 1750e3, 2350e3, 3000e3, 4300e3,
       5800e3, 7500e3, 11600e3, 16000e3});
  return ladder;
}

BitrateLadder BitrateLadder::standard() { return shared_standard(); }

BitrateLadder::BitrateLadder(std::vector<double> rungs)
    : rungs_(std::move(rungs)) {
  if (rungs_.empty()) {
    throw std::invalid_argument("BitrateLadder: empty ladder");
  }
  if (!std::is_sorted(rungs_.begin(), rungs_.end())) {
    throw std::invalid_argument("BitrateLadder: rungs must ascend");
  }
  quality_.reserve(rungs_.size());
  for (double r : rungs_) quality_.push_back(perceptual_quality(r));
}

BitrateLadder BitrateLadder::without_top(std::size_t count) const {
  const std::size_t keep = rungs_.size() > count ? rungs_.size() - count : 1;
  return BitrateLadder(
      std::vector<double>(rungs_.begin(), rungs_.begin() + keep));
}

BitrateLadder BitrateLadder::capped(double cap) const {
  std::vector<double> kept;
  for (double r : rungs_) {
    if (r <= cap) kept.push_back(r);
  }
  if (kept.empty()) kept.push_back(rungs_.front());
  return BitrateLadder(std::move(kept));
}

double perceptual_quality(double bitrate_bps) noexcept {
  if (bitrate_bps <= 0.0) return 0.0;
  // Anchors: 235 kb/s ~ 35, 16 Mb/s ~ 97; log-linear between, clamped.
  const double lo = std::log(235e3), hi = std::log(16e6);
  const double t = (std::log(bitrate_bps) - lo) / (hi - lo);
  return std::clamp(35.0 + t * 62.0, 0.0, 100.0);
}

}  // namespace xp::video
