#include "sim/tcp/congestion_control.h"

#include <stdexcept>

#include "sim/tcp/bbr.h"
#include "sim/tcp/cubic.h"
#include "sim/tcp/reno.h"

namespace xp::sim {

std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgorithm algorithm, const CcConfig& config) {
  switch (algorithm) {
    case CcAlgorithm::kReno:
      return std::make_unique<RenoCc>(config);
    case CcAlgorithm::kCubic:
      return std::make_unique<CubicCc>(config);
    case CcAlgorithm::kBbr:
      return std::make_unique<BbrCc>(config);
  }
  throw std::logic_error("unreachable congestion control algorithm");
}

}  // namespace xp::sim
