#include "video/abr.h"

#include <bit>
#include <cstdint>
#include <limits>

namespace xp::video {

namespace {

constexpr std::uint64_t kSign = std::uint64_t{1} << 63;

// Doubles in value order as unsigned integers: a negative double has all
// its bits flipped, a non-negative one gets the sign bit set. Adjacent
// keys are adjacent doubles (-0.0 sits just below +0.0), and every key
// between those of two non-NaN doubles is a non-NaN double.
std::uint64_t order_key(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

double from_order_key(std::uint64_t key) noexcept {
  return std::bit_cast<double>((key & kSign) != 0 ? key & ~kSign : ~key);
}

}  // namespace

std::vector<double> abr_rung_thresholds(double top_index,
                                        const AbrConfig& config) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto top = static_cast<std::size_t>(top_index);
  const auto index = [&](double buffer) {
    return abr_select_index_rungs(top_index, config, buffer);
  };
  std::vector<double> thresholds(top + 2, kInf);
  thresholds[0] = -kInf;
  // Every buffer at or below the reservoir maps to rung 0, so the search
  // for k >= 1 starts there: index(lo) < k <= index(hi) holds throughout.
  const std::uint64_t start = order_key(config.reservoir_seconds);
  const std::uint64_t end = order_key(kInf);
  for (std::size_t k = 1; k <= top; ++k) {
    if (index(kInf) < k) break;  // no buffer level reaches k (or above)
    std::uint64_t lo = start;
    std::uint64_t hi = end;
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      (index(from_order_key(mid)) >= k ? hi : lo) = mid;
    }
    thresholds[k] = from_order_key(hi);
  }
  return thresholds;
}

}  // namespace xp::video
