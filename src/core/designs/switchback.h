// Switchback experiments (Section 5.2-5.3, Appendix B.2).
//
// Time is divided into intervals (days by default); each interval is
// randomly treatment or control. On treatment days we keep the treated
// sessions of the targeted network; on control days the control sessions.
// Analysis is the hourly FE + Newey-West pipeline; because data is
// aggregated to hours, each interval effectively contributes its hours as
// correlated observations (the worst-case assumption of Appendix B).
#pragma once

#include <span>
#include <vector>

#include "core/observation.h"

namespace xp::core {

/// Build the emulated switchback dataset from a metric column of
/// observations (rows keep their own arm labels; group is the link).
/// day_treated[d] keeps the treated rows of the mostly-treated link on
/// day d, the control rows of the mostly-control link otherwise (Section
/// 5.3); days past the assignment are dropped. Throws
/// std::invalid_argument on an empty assignment. The TTE is
/// hourly_fe_analysis() of the result.
std::vector<Observation> switchback_observations(
    std::span<const Observation> rows, const std::vector<bool>& day_treated);

}  // namespace xp::core
