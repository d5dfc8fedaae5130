// Quantile treatment effects (Section 2, "Note on averages"): the
// difference in a quantile of the outcome distribution between arms,
// e.g. the p99 latency gap. "These are regularly estimated from A/B test
// results" — we provide the plug-in estimator with bootstrap intervals,
// since the sampling distribution of quantile differences is awkward for
// the delta method at extreme quantiles.
#pragma once

#include <span>
#include <vector>

#include "core/estimands.h"
#include "core/observation.h"
#include "stats/rng.h"

namespace xp::core {

struct QuantileEffectOptions {
  double confidence_level = 0.95;
  std::size_t bootstrap_replicates = 600;
  std::uint64_t seed = 7;
};

/// A ladder of quantile effects (e.g. median, p90, p99) for one metric —
/// congestion interference often concentrates in the tail, so the tail
/// effects can disagree with the mean effect in both size and sign.
struct QuantileEffectRow {
  double quantile = 0.0;
  EffectEstimate effect;
};

/// Q_q(treated) - Q_q(control) for each q in `quantiles`, with
/// percentile-bootstrap intervals (arms resampled independently; rung i
/// draws from seed + i + 1). Each arm is sorted once for the whole
/// ladder. Throws std::invalid_argument on a non-finite outcome or on an
/// arm with fewer than 10 rows. Serial: the pipeline fans out whole
/// (estimator, metric) jobs, so the ladder runs inside one of them.
std::vector<QuantileEffectRow> quantile_effect_ladder(
    std::span<const Observation> rows,
    std::span<const double> quantiles,
    const QuantileEffectOptions& options = {});

}  // namespace xp::core
