// The paired-link experiment design (Section 4 + Appendix B.1). Link 0
// runs a 95%-treatment A/B test, link 1 a 5%-treatment A/B test,
// simultaneously. Four analyses per metric, each a registry estimator
// (core/estimator.h) built from the contrasts below:
//
//   naive tau(0.95):  treated vs control within link 0 (account-level;
//                     naive/ab, row tau(link1))
//   naive tau(0.05):  treated vs control within link 1 (account-level;
//                     naive/ab, row tau(link2))
//   TTE-hat:          95% treated on link 0 vs 95% control on link 1
//                     (hourly FE + Newey-West; paired_link/tte)
//   spillover-hat:    5% control on link 0 vs 95% control on link 1
//                     (hourly FE + Newey-West; paired_link/spillover)
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
