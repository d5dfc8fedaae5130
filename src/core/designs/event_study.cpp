#include "core/designs/event_study.h"

namespace xp::core {

std::vector<Observation> event_study_observations(
    std::span<const Observation> rows, const EventStudyOptions& options) {
  std::vector<Observation> out;
  for (const Observation& row : rows) {
    const bool post = row.day >= options.switch_day;
    if (post) {
      if (row.group != options.treated_source_link || !row.treated) continue;
    } else {
      if (row.group != options.control_source_link || row.treated) continue;
    }
    Observation obs = row;
    obs.treated = post;
    out.push_back(obs);
  }
  return out;
}

EffectEstimate event_study_tte(std::span<const Observation> rows,
                               const EventStudyOptions& options) {
  const auto obs = event_study_observations(rows, options);
  return hourly_fe_analysis(obs, options.analysis);
}

}  // namespace xp::core
