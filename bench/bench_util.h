// Shared helpers for the figure-reproduction benchmark binaries. Every
// figure gets its world from the scenario registry through
// run_experiment (bootstrap_weeks, lab_sweep), so benches that read the
// same scenario and seed read the same world: Figs 5-9 and the ablations
// read paired_links/experiment's week 1, and t01, t02 and Fig 6 (a) read
// paired_links/baseline at seed 1917.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/observation.h"
#include "lab/experiment.h"

namespace xp::bench {

void header(std::string_view title);

/// `weeks` independent replicate worlds of a registered scenario at its
/// default allocation, fanned across the process-wide runner (the world
/// of every paired-link figure and table bench), analyzed in the same
/// pass by the named registry estimators (core/estimator.h).
lab::ExperimentReport bootstrap_weeks(
    const std::string& scenario, std::size_t weeks,
    std::vector<std::string> estimators = {}, std::uint64_t seed = 2021,
    double duration_scale = 1.0);

/// The Figure 2/3 lab sweep: a dumbbell/* scenario at all eleven treated
/// counts of its ten apps (allocation k/10), one world per point, through
/// the experiment pipeline (cells fan across the process-wide runner).
/// duration_scale stretches the canonical 3 s warmup + 10 s window.
lab::ExperimentReport lab_sweep(const std::string& scenario,
                                double duration_scale);

/// One sweep point read off a lab cell's table: per-arm means of the
/// throughput and retransmit columns plus the bottleneck aggregate. An
/// empty arm (the p = 0 and p = 1 endpoints) reads 0.
struct LabPoint {
  double allocation = 0.0;
  std::size_t treated_count = 0;
  double mu_treated_throughput = 0.0;
  double mu_control_throughput = 0.0;
  double mu_treated_retransmit = 0.0;
  double mu_control_retransmit = 0.0;
  double aggregate_throughput = 0.0;
};

std::vector<LabPoint> lab_points(const lab::ExperimentReport& report);

/// Across-week spread of a per-week statistic.
struct WeekSpread {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

WeekSpread across_weeks(const std::vector<double>& values);

/// Across-week band of hourly mean outcomes (the Figure 11/12 series).
/// A week contributes to an hour's band only if it has observations in
/// that hour, so sparsely covered hours are not dragged toward zero.
struct HourlyBand {
  std::vector<double> mean, min, max;          ///< indexed by hour
  std::vector<std::size_t> weeks_with_data;    ///< per-hour coverage
};

HourlyBand hourly_band(
    const std::vector<std::vector<core::Observation>>& weekly_obs,
    std::size_t hours);

}  // namespace xp::bench
