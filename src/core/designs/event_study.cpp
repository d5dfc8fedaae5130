#include "core/designs/event_study.h"

#include "core/designs/paired_link.h"

namespace xp::core {

std::vector<Observation> event_study_observations(
    std::span<const Observation> rows, std::uint32_t switch_day) {
  std::vector<Observation> out;
  for (const Observation& row : rows) {
    const bool post = row.day >= switch_day;
    if (post) {
      if (row.group != kMostlyTreatedLink || !row.treated) continue;
    } else {
      if (row.group != kMostlyControlLink || row.treated) continue;
    }
    Observation obs = row;
    obs.treated = post;
    out.push_back(obs);
  }
  return out;
}

}  // namespace xp::core
