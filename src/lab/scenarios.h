// Section 3 lab scenarios: experimental units are applications sharing
// the dumbbell bottleneck; the treatment changes their transport behavior
// (number of parallel connections, pacing, or congestion control). The
// registry publishes each treatment as a dumbbell/* scenario; sweeping a
// spec over allocations recreates Figures 2-3, where every point on the
// x-axis is a different A/B test of the same treatment.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/dumbbell.h"

namespace xp::lab {

enum class Treatment {
  kTwoConnections,  ///< 1 connection -> 2 parallel connections (Fig 2a)
  kPacing,          ///< unpaced Reno -> paced Reno (Fig 2b)
  kBbrVsCubic,      ///< Cubic -> BBR (Fig 3)
};

struct LabConfig {
  sim::DumbbellConfig dumbbell;
  std::size_t num_apps = 10;
  std::uint64_t seed = 1;
};

/// Per-application outcomes of one lab run.
struct LabUnit {
  bool treated = false;
  double throughput_bps = 0.0;
  double retransmit_fraction = 0.0;
  double mean_rtt = 0.0;
  double min_rtt = 0.0;
};

struct LabRun {
  std::vector<LabUnit> units;
  double aggregate_throughput_bps = 0.0;
  double link_utilization = 0.0;
};

/// Run the scenario with `treated_count` of the apps in treatment.
LabRun run_lab(Treatment treatment, std::size_t treated_count,
               const LabConfig& config);

}  // namespace xp::lab
