#include "lab/scenarios.h"

#include <stdexcept>

namespace xp::lab {

namespace {

sim::AppSpec control_spec(Treatment treatment) {
  sim::AppSpec spec;
  spec.label = "control";
  switch (treatment) {
    case Treatment::kTwoConnections:
      spec.connections = 1;
      spec.algorithm = sim::CcAlgorithm::kReno;
      break;
    case Treatment::kPacing:
      spec.connections = 1;
      spec.algorithm = sim::CcAlgorithm::kReno;
      spec.pacing = false;
      break;
    case Treatment::kBbrVsCubic:
      spec.connections = 1;
      spec.algorithm = sim::CcAlgorithm::kCubic;
      break;
  }
  return spec;
}

sim::AppSpec treated_spec(Treatment treatment) {
  sim::AppSpec spec = control_spec(treatment);
  spec.label = "treatment";
  switch (treatment) {
    case Treatment::kTwoConnections:
      spec.connections = 2;
      break;
    case Treatment::kPacing:
      spec.pacing = true;
      break;
    case Treatment::kBbrVsCubic:
      spec.algorithm = sim::CcAlgorithm::kBbr;
      break;
  }
  return spec;
}

}  // namespace

LabRun run_lab(Treatment treatment, std::size_t treated_count,
               const LabConfig& config) {
  if (treated_count > config.num_apps) {
    throw std::invalid_argument("run_lab: treated_count > num_apps");
  }
  std::vector<sim::AppSpec> specs;
  specs.reserve(config.num_apps);
  for (std::size_t i = 0; i < config.num_apps; ++i) {
    specs.push_back(i < treated_count ? treated_spec(treatment)
                                      : control_spec(treatment));
  }
  sim::DumbbellConfig dumbbell = config.dumbbell;
  dumbbell.seed = config.seed;
  const sim::DumbbellResult result = sim::run_dumbbell(dumbbell, specs);

  LabRun run;
  run.aggregate_throughput_bps = result.aggregate_throughput_bps;
  run.link_utilization = result.link_utilization;
  run.units.reserve(result.apps.size());
  for (std::size_t i = 0; i < result.apps.size(); ++i) {
    const sim::AppMetrics& m = result.apps[i].metrics;
    LabUnit unit;
    unit.treated = i < treated_count;
    unit.throughput_bps = m.throughput_bps;
    unit.retransmit_fraction = m.retransmit_fraction;
    unit.mean_rtt = m.mean_rtt;
    unit.min_rtt = m.min_rtt;
    run.units.push_back(unit);
  }
  return run;
}

}  // namespace xp::lab
