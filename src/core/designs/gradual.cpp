#include "core/designs/gradual.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace xp::core {

namespace {

/// |a - b| / sqrt(se_a^2 + se_b^2); 0 when neither has a standard error.
double difference_z(const EffectEstimate& a, const EffectEstimate& b) {
  const double se =
      std::sqrt(a.std_error * a.std_error + b.std_error * b.std_error);
  return se > 0.0 ? std::fabs((a.estimate - b.estimate) / se) : 0.0;
}

/// A null row (failed guard, missing arm) carries no standard error.
bool estimated(const EffectEstimate& e) {
  return std::isfinite(e.estimate) && e.std_error > 0.0;
}

}  // namespace

SutvaTests sutva_tests(const EstimateTable& table, std::string_view metric,
                       std::size_t replicate) {
  SutvaTests tests;
  std::vector<const EstimateRow*> taus;
  const EstimateRow* tte = nullptr;
  for (const EstimateRow* row : table.metric_rows(metric)) {
    const EffectEstimate& e = row->replicates.at(replicate);
    if (!estimated(e)) continue;
    if (row->label == "tte") {
      tte = row;
    } else if (row->label.starts_with("tau@")) {
      taus.push_back(row);
    } else if (row->label.starts_with("spillover@") && e.significant) {
      ++tests.significant_spillovers;
    }
  }
  for (std::size_t i = 0; i < taus.size(); ++i) {
    const EffectEstimate& tau = taus[i]->replicates[replicate];
    for (std::size_t j = i + 1; j < taus.size(); ++j) {
      tests.max_tau_inequality_z =
          std::max(tests.max_tau_inequality_z,
                   difference_z(tau, taus[j]->replicates[replicate]));
    }
    // The tte row is rho at the top step: compare it with that step's tau.
    if (tte != nullptr && taus[i]->allocation == tte->allocation) {
      tests.max_partial_vs_average_z =
          difference_z(tte->replicates[replicate], tau);
    }
  }
  tests.interference_detected = tests.max_tau_inequality_z > 2.0 ||
                                tests.significant_spillovers > 0 ||
                                tests.max_partial_vs_average_z > 2.0;
  return tests;
}

}  // namespace xp::core
