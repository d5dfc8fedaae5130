// Fixed-width table rendering for benchmark binaries: the Figure 5 /
// Figure 10 style "metric x estimator" tables and allocation-sweep series.
#pragma once

#include <iosfwd>
#include <string>

#include "core/estimands.h"
#include "core/estimate_table.h"

namespace xp::core {

/// "+12.3% [ +8.1%, +16.4%]" or "  (ns)" when not significant.
std::string format_relative(const EffectEstimate& estimate);

/// Print the Figure 5 table straight off the estimator registry's
/// output — one row per metric, columns for the naive estimates, TTE and
/// spillover (all relative to the global control): naive is the
/// "naive/ab" table (tau(link1)/tau(link2) rows), tte the
/// "paired_link/tte" table, spillover the "paired_link/spillover" table.
void print_figure5_table(std::ostream& os, const EstimateTable& naive,
                         const EstimateTable& tte,
                         const EstimateTable& spillover);

/// Generic dump of one estimator's table: every row with its headline
/// relative effect and the across-replicate spread.
void print_estimate_table(std::ostream& os, const EstimateTable& table);

}  // namespace xp::core
