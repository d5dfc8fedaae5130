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

#include "core/analysis.h"

namespace xp::core {

struct SwitchbackOptions {
  /// Per-day arm: day_treated[d] selects treated rows on the treated
  /// source for day d, control rows on the control source otherwise.
  std::vector<bool> day_treated;
  /// Where treated/control rows come from in the emulation (Section 5.3
  /// uses the 95% link for treated days, the 5% link for control days).
  std::uint8_t treated_source_link = 0;
  std::uint8_t control_source_link = 1;
  AnalysisOptions analysis;
};

/// Build the emulated switchback dataset from a metric column of
/// observations (rows keep their own arm labels; group is the link).
/// ObservationTable columns feed this directly.
std::vector<Observation> switchback_observations(
    std::span<const Observation> rows, const SwitchbackOptions& options);

/// TTE estimate from a switchback design.
EffectEstimate switchback_tte(std::span<const Observation> rows,
                              const SwitchbackOptions& options);

}  // namespace xp::core
