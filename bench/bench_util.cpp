#include "bench/bench_util.h"

#include <stdexcept>
#include <utility>

#include "core/analysis.h"
#include "stats/descriptive.h"

namespace xp::bench {

void header(std::string_view title) {
  std::printf("\n%.*s\n", 100,
              "====================================================="
              "===============================================");
  std::printf("  %s\n", std::string(title).c_str());
  std::printf("%.*s\n", 100,
              "====================================================="
              "===============================================");
}

lab::ExperimentReport bootstrap_weeks(const std::string& scenario,
                                      std::size_t weeks,
                                      std::vector<std::string> estimators,
                                      std::uint64_t seed,
                                      double duration_scale) {
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.tuning.duration_scale = duration_scale;
  spec.replicates = weeks;
  spec.estimators = std::move(estimators);
  spec.seed = seed;
  return lab::run_experiment(spec);
}

lab::ExperimentReport lab_sweep(const std::string& scenario,
                                double duration_scale) {
  lab::ExperimentSpec spec;
  spec.scenario = scenario;
  spec.tuning.duration_scale = duration_scale;
  for (int treated = 0; treated <= 10; ++treated) {
    spec.allocations.push_back(treated / 10.0);
  }
  return lab::run_experiment(spec);
}

std::vector<LabPoint> lab_points(const lab::ExperimentReport& report) {
  std::vector<LabPoint> points;
  for (const lab::ExperimentCell& cell : report.cells) {
    const auto& throughput = cell.table.column("avg throughput");
    const auto& retransmit = cell.table.column("% retransmitted bytes");
    LabPoint point;
    point.allocation = cell.allocation;
    for (const core::Observation& row : throughput) {
      point.treated_count += row.treated ? 1 : 0;
    }
    point.mu_treated_throughput = core::arm_mean(throughput, true);
    point.mu_control_throughput = core::arm_mean(throughput, false);
    point.mu_treated_retransmit = core::arm_mean(retransmit, true);
    point.mu_control_retransmit = core::arm_mean(retransmit, false);
    point.aggregate_throughput =
        cell.table.aggregate("aggregate_throughput_bps");
    points.push_back(point);
  }
  return points;
}

HourlyBand hourly_band(
    const std::vector<std::vector<core::Observation>>& weekly_obs,
    std::size_t hours) {
  const std::size_t weeks = weekly_obs.size();
  std::vector<std::vector<double>> sum(weeks,
                                       std::vector<double>(hours, 0.0));
  std::vector<std::vector<double>> count(weeks,
                                         std::vector<double>(hours, 0.0));
  for (std::size_t w = 0; w < weeks; ++w) {
    for (const core::Observation& obs : weekly_obs[w]) {
      if (obs.hour_index >= hours) continue;
      sum[w][obs.hour_index] += obs.outcome;
      count[w][obs.hour_index] += 1.0;
    }
  }

  HourlyBand band;
  band.mean.assign(hours, 0.0);
  band.min.assign(hours, 0.0);
  band.max.assign(hours, 0.0);
  band.weeks_with_data.assign(hours, 0);
  for (std::size_t h = 0; h < hours; ++h) {
    std::vector<double> means;
    for (std::size_t w = 0; w < weeks; ++w) {
      if (count[w][h] > 0.0) means.push_back(sum[w][h] / count[w][h]);
    }
    band.weeks_with_data[h] = means.size();
    if (!means.empty()) {
      const WeekSpread spread = across_weeks(means);
      band.mean[h] = spread.mean;
      band.min[h] = spread.min;
      band.max[h] = spread.max;
    }
  }
  return band;
}

WeekSpread across_weeks(const std::vector<double>& values) {
  if (values.empty()) {
    throw std::invalid_argument("across_weeks: no values");
  }
  WeekSpread spread;
  spread.mean = stats::mean(values);
  spread.min = stats::min(values);
  spread.max = stats::max(values);
  return spread;
}

}  // namespace xp::bench
