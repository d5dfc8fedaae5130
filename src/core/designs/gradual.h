// Gradual deployments as measurement instruments (Section 5.1).
//
// A gradual deployment is a sequence of A/B tests at increasing
// allocations p1 < p2 < ... At each step we can estimate the average
// treatment effect tau(p), the partial treatment effect
// rho(p) = mu_T(p) - mu_C(0), and the spillover s(p) = mu_C(p) - mu_C(0),
// where mu_C(0) comes from the pre-deployment (lowest) step. Under SUTVA
// all tau(p) are equal, rho(p) == tau(p), and s(p) == 0 — giving a test
// battery for congestion interference.
//
// The deployment itself is an ExperimentSpec swept over the allocations
// and read by the gradual/contrast estimator (core/estimator.h), which
// publishes one row per step: "tau@<p>", "spillover@<p>" (every step
// above the lowest), and "tte" (treated at the top step vs control at the
// lowest — rho at the top step).
#pragma once

#include <cstddef>
#include <string_view>

#include "core/estimate_table.h"

namespace xp::core {

struct SutvaTests {
  /// Largest |z| for pairwise tau(p_i) == tau(p_j).
  double max_tau_inequality_z = 0.0;
  /// Number of allocations with statistically significant spillover.
  std::size_t significant_spillovers = 0;
  /// Largest |z| for rho(p) == tau(p). The table carries rho only at the
  /// top step (its "tte" row); below it rho(p) - tau(p) is exactly s(p),
  /// which significant_spillovers already tests.
  double max_partial_vs_average_z = 0.0;
  /// Overall verdict at ~2-sigma.
  bool interference_detected = false;
};

/// Run the SUTVA test battery over one metric of a gradual/contrast
/// EstimateTable, reading each row's estimate from replicate world
/// `replicate`. Null rows (a step too thin to estimate) are skipped.
SutvaTests sutva_tests(const EstimateTable& table, std::string_view metric,
                       std::size_t replicate = 0);

}  // namespace xp::core
