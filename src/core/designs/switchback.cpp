#include "core/designs/switchback.h"

#include <stdexcept>

#include "core/designs/paired_link.h"

namespace xp::core {

std::vector<Observation> switchback_observations(
    std::span<const Observation> rows, const std::vector<bool>& day_treated) {
  if (day_treated.empty()) {
    throw std::invalid_argument("switchback: no interval assignment");
  }
  std::vector<Observation> out;
  for (const Observation& row : rows) {
    if (row.day >= day_treated.size()) continue;
    const bool treated_day = day_treated[row.day];
    if (treated_day) {
      if (row.group != kMostlyTreatedLink || !row.treated) continue;
    } else {
      if (row.group != kMostlyControlLink || row.treated) continue;
    }
    Observation obs = row;
    obs.treated = treated_day;
    out.push_back(obs);
  }
  return out;
}

}  // namespace xp::core
