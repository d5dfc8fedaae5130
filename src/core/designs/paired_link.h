// The paired-link experiment design and analysis (Section 4 + Appendix
// B.1). Link 0 runs a 95%-treatment A/B test, link 1 a 5%-treatment A/B
// test, simultaneously. Four analyses per metric:
//
//   naive tau(0.95):  treated vs control within link 0 (account-level)
//   naive tau(0.05):  treated vs control within link 1 (account-level)
//   TTE-hat:          95% treated on link 0 vs 95% control on link 1
//                     (hourly FE + Newey-West)
//   spillover-hat:    5% control on link 0 vs 95% control on link 1
//                     (hourly FE + Newey-West)
//
// All reported values are normalized by the mean of the 95%-control cell
// on link 1 — the same global control condition for every row.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis.h"
#include "core/session_metrics.h"

namespace xp::core {

/// The paired design's two links (Observation::group): link 0 runs the
/// mostly-treated A/B test, link 1 the mostly-control one. The switchback
/// and event-study emulations draw treated rows from the first and control
/// rows from the second.
inline constexpr std::uint8_t kMostlyTreatedLink = 0;
inline constexpr std::uint8_t kMostlyControlLink = 1;

struct PairedLinkReport {
  Metric metric = Metric::kThroughput;
  EffectEstimate naive_high;  ///< tau-hat(0.95), within mostly-treated link
  EffectEstimate naive_low;   ///< tau-hat(0.05), within mostly-control link
  EffectEstimate tte;         ///< approximate total treatment effect
  EffectEstimate spillover;   ///< s-hat(0.95)
  /// Cell means [link][arm] for the Figure 7/8 style plots.
  double cell_mean[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
  std::size_t cell_count[2][2] = {{0, 0}, {0, 0}};
  double baseline = 0.0;  ///< normalizing mean (mostly-control link, control)
};

/// Analyze a metric column of paired-link observations (rows keep their
/// own arm labels; group is the link) — an ObservationTable column, or
/// core::select() over telemetry records. The report's `metric` field is
/// left at its default; callers that know the metric set it.
PairedLinkReport analyze_paired_link(std::span<const Observation> rows);

/// The TTE contrast rows: treated on the mostly-treated link labeled A=1,
/// control on the mostly-control link labeled A=0 (Figures 9/13 and the
/// quantile ladders all use this cell pairing).
std::vector<Observation> tte_contrast(std::span<const Observation> rows);

/// The general cross-cell pairing every paired analysis reduces to: rows
/// matching `exposed` relabeled A=1 against rows matching `control`
/// relabeled A=0. TTE, spillover, and the A/A link-similarity read are
/// all instances of this.
std::vector<Observation> cross_cell_contrast(std::span<const Observation> rows,
                                             const RowFilter& exposed,
                                             const RowFilter& control);

}  // namespace xp::core
