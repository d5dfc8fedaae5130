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

#include <cstdint>
#include <span>
#include <vector>

#include "core/observation.h"

namespace xp::core {

/// Build the emulated event-study dataset from a metric column of
/// observations (rows keep their own arm labels; group is the link):
/// control rows of the mostly-control link before `switch_day` (the first
/// treated day; the switch happens at its midnight boundary), treated rows
/// of the mostly-treated link from it on. The TTE is hourly_fe_analysis()
/// of the result.
std::vector<Observation> event_study_observations(
    std::span<const Observation> rows, std::uint32_t switch_day);

}  // namespace xp::core
