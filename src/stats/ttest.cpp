#include "stats/ttest.h"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace xp::stats {

namespace {

TTestResult finish(double estimate, double se, double df,
                   double confidence_level) {
  TTestResult r;
  r.estimate = estimate;
  r.std_error = se;
  r.df = df;
  if (se > 0.0) {
    r.t_stat = estimate / se;
    r.p_value = two_sided_p_value(r.t_stat, df);
  } else {
    r.t_stat = 0.0;
    r.p_value = estimate == 0.0 ? 1.0 : 0.0;
  }
  const double crit = critical_value(confidence_level, df);
  r.ci_low = estimate - crit * se;
  r.ci_high = estimate + crit * se;
  r.significant = r.p_value < (1.0 - confidence_level);
  return r;
}

}  // namespace

TTestResult welch_t_test(std::span<const double> a, std::span<const double> b,
                         double confidence_level) {
  if (a.size() < 2 || b.size() < 2) {
    throw std::invalid_argument("welch_t_test: need >= 2 samples per group");
  }
  const double ma = mean(a), mb = mean(b);
  const double va = variance(a), vb = variance(b);
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  const double se2 = va / na + vb / nb;
  const double se = std::sqrt(se2);
  double df = 0.0;
  if (se2 > 0.0) {
    const double num = se2 * se2;
    const double den = (va / na) * (va / na) / (na - 1.0) +
                       (vb / nb) * (vb / nb) / (nb - 1.0);
    df = den > 0.0 ? num / den : na + nb - 2.0;
  } else {
    df = na + nb - 2.0;
  }
  return finish(ma - mb, se, df, confidence_level);
}

}  // namespace xp::stats
