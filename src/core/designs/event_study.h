// Event studies / interrupted time series (Section 5.1, 5.3).
//
// A deployment is modeled as a switch day: before it, the system runs
// control; from it on, treatment. The emulation draws pre-switch rows
// from the mostly-control link and post-switch rows from the mostly-
// treated link, then runs the hourly FE pipeline. Seasonality (weekday
// vs weekend) is exactly the confound that biases this design — the
// paper found event studies false-positive on most metrics in A/A
// calibration, while switchbacks did not.
#pragma once

#include <span>
#include <vector>

#include "core/analysis.h"

namespace xp::core {

struct EventStudyOptions {
  /// First treated day (switch happens at its midnight boundary).
  std::uint32_t switch_day = 3;
  std::uint8_t treated_source_link = 0;
  std::uint8_t control_source_link = 1;
  AnalysisOptions analysis;
};

/// Build the emulated event-study dataset from a metric column of
/// observations (rows keep their own arm labels; group is the link).
/// ObservationTable columns feed this directly.
std::vector<Observation> event_study_observations(
    std::span<const Observation> rows, const EventStudyOptions& options);

/// TTE estimate from the event study.
EffectEstimate event_study_tte(std::span<const Observation> rows,
                               const EventStudyOptions& options);

}  // namespace xp::core
