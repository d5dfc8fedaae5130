#include "core/designs/switchback.h"

#include <stdexcept>

namespace xp::core {

std::vector<Observation> switchback_observations(
    std::span<const Observation> rows, const SwitchbackOptions& options) {
  if (options.day_treated.empty()) {
    throw std::invalid_argument("switchback: no interval assignment");
  }
  std::vector<Observation> out;
  for (const Observation& row : rows) {
    if (row.day >= options.day_treated.size()) continue;
    const bool treated_day = options.day_treated[row.day];
    if (treated_day) {
      if (row.group != options.treated_source_link || !row.treated) continue;
    } else {
      if (row.group != options.control_source_link || row.treated) continue;
    }
    Observation obs = row;
    obs.treated = treated_day;
    out.push_back(obs);
  }
  return out;
}

EffectEstimate switchback_tte(std::span<const Observation> rows,
                              const SwitchbackOptions& options) {
  const auto obs = switchback_observations(rows, options);
  return hourly_fe_analysis(obs, options.analysis);
}

}  // namespace xp::core
