// Shared helpers for the figure-reproduction benchmark binaries. The
// canonical experiment/baseline week configurations live in exactly one
// compiled translation unit (bench_util.cpp, on top of the lab registry's
// canonical configs) so every bench reproduces the same worlds.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/observation.h"
#include "lab/experiment.h"
#include "video/cluster.h"

namespace xp::bench {

void header(std::string_view title);

/// The canonical 5-day paired-link experiment of Section 4 (Wed-Sun).
video::ClusterResult main_experiment(double days = 5.0,
                                     std::uint64_t seed = 2021);

/// The baseline week: no treatment anywhere (Section 4.1 / A/A data).
video::ClusterResult baseline_week(double days = 5.0,
                                   std::uint64_t seed = 1917);

/// Baseline week and main experiment, fanned across cores. Both worlds are
/// independent and deterministic in their own seeds, so the pair is
/// identical to two serial runs at any thread count.
std::pair<video::ClusterResult, video::ClusterResult> baseline_and_experiment(
    double days = 5.0);

/// `weeks` independent replicate worlds of a registered scenario at its
/// default allocation, fanned across the process-wide runner (the
/// bootstrap-week harness of the Figure 5/10-13 benches), analyzed in
/// the same pass by the named registry estimators (core/estimator.h).
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
