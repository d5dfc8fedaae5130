// Causal estimands for congested-network experiments (Section 2).
//
//   mu_T(p), mu_C(p) — mean potential outcome of treated/control units at
//                      treatment allocation p.
//   tau(p)  = mu_T(p) - mu_C(p)          average treatment effect at p —
//             what a naive A/B test estimates.
//   TTE     = mu_T(1) - mu_C(0)          total treatment effect — what the
//             experimenter actually wants: deploy-to-all vs nobody.
//   s(p)    = mu_C(p) - mu_C(0)          spillover of treatment on control.
//   rho(p)  = mu_T(p) - mu_C(0)          partial treatment effect (used in
//             gradual-deployment event studies, Section 5.1).
//
// SUTVA (no interference) holds iff tau(p) is constant in p, rho(p) ==
// tau(p), and s(p) == 0 — the testable battery in interference.h. In
// congested networks treatment and control share queues, so none of these
// need hold ("congestion interference").
#pragma once

namespace xp::core {

/// A point estimate with inference summary. `relative` values are
/// normalized by the global control mean (the paper normalizes everything
/// by the 95%-control cell on link 2 for interpretability).
struct EffectEstimate {
  double estimate = 0.0;
  double std_error = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
  double p_value = 1.0;
  bool significant = false;   ///< 95% two-sided
  double baseline = 0.0;      ///< the normalizing control mean
  /// estimate / baseline (0 when baseline == 0).
  double relative() const noexcept {
    return baseline == 0.0 ? 0.0 : estimate / baseline;
  }
  double relative_ci_low() const noexcept {
    return baseline == 0.0 ? 0.0 : ci_low / baseline;
  }
  double relative_ci_high() const noexcept {
    return baseline == 0.0 ? 0.0 : ci_high / baseline;
  }
};

enum class Estimand {
  kAverageTreatmentEffect,  ///< tau(p)
  kTotalTreatmentEffect,    ///< TTE
  kSpillover,               ///< s(p)
  kPartialTreatmentEffect,  ///< rho(p)
};

}  // namespace xp::core
