#include "sim/tcp/congestion_control.h"

#include <stdexcept>
#include <string>

#include "sim/tcp/bbr.h"
#include "sim/tcp/cubic.h"
#include "sim/tcp/reno.h"

namespace xp::sim {

CcAlgorithm parse_cc_algorithm(std::string_view name) {
  if (name == "reno") return CcAlgorithm::kReno;
  if (name == "cubic") return CcAlgorithm::kCubic;
  if (name == "bbr") return CcAlgorithm::kBbr;
  throw std::invalid_argument("unknown congestion control: " +
                              std::string(name));
}

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
