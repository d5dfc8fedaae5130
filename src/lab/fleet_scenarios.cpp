#include "lab/fleet_scenarios.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/cell_accumulator.h"
#include "lab/journal.h"
#include "util/budget.h"
#include "video/cluster.h"

namespace xp::lab {

namespace {

/// Cell-sketch hour span for a shard horizon (matches the cluster's
/// hourly-diagnostic sizing: every session start hour fits).
std::size_t fleet_hours(const video::FleetConfig& fleet) {
  return static_cast<std::size_t>(fleet.base.days * 24.0) + 1;
}

/// Ticks one shard's main loop runs to the horizon — the fleet budget
/// currency is these, summed across shards.
double shard_nominal_ticks(const video::ClusterConfig& config) {
  return std::ceil(config.days * 86400.0 / config.tick_seconds);
}

class FleetSource final : public DataSource {
 public:
  FleetSource(video::FleetConfig fleet, util::RunBudget budget)
      : fleet_(std::move(fleet)), budget_(budget) {}

  double default_allocation() const noexcept override {
    return fleet_.base.treat_probability[0];
  }

  ObservationTable run(double allocation, std::uint64_t seed,
                       util::Runner& runner) const override {
    const video::FleetConfig fleet = configured(allocation, seed);
    // Budget currency = ticks summed across shards, checked up front
    // (serially, so the throw is deterministic and no shard starts when
    // the fleet as a whole cannot finish). Per-shard budgets would hand
    // every shard the whole allowance.
    if (budget_.max_work_units != 0) {
      double total_ticks = 0.0;
      for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
        total_ticks +=
            shard_nominal_ticks(video::shard_cluster_config(fleet, s));
      }
      if (total_ticks > static_cast<double>(budget_.max_work_units)) {
        util::throw_budget_exceeded("lab::FleetSource", "ticks",
                                    budget_.max_work_units);
      }
    }
    return run_fleet(fleet, runner);
  }

  double intended_treated_fraction(double allocation) const noexcept override {
    // Every shard shares link0_probability and the treat probabilities,
    // so the fleet-wide marginal equals the base cluster's.
    return video::intended_treated_fraction(configured(allocation, 0).base);
  }

  // FNV-1a over the fields that change a fleet's output, so the journal
  // fingerprint distinguishes fleets the scenario key alone cannot.
  std::uint64_t config_fingerprint() const noexcept override {
    std::uint64_t h = kFnv1a64Basis;
    const auto mix = [&h](auto v) {
      h = fnv1a64(reinterpret_cast<const char*>(&v), sizeof v, h);
    };
    mix(static_cast<std::uint64_t>(fleet_.shards.size()));
    for (const video::ShardConfig& shard : fleet_.shards) {
      mix(shard.capacity_scale);
      mix(shard.demand_scale);
      mix(static_cast<std::int64_t>(shard.demand_phase_hours));
      mix(shard.uhd_tilt);
    }
    mix(fleet_.base.days);
    mix(fleet_.base.tick_seconds);
    mix(fleet_.base.demand.peak_arrivals_per_second);
    mix(fleet_.base.link.capacity_bps);
    mix(fleet_.base.link0_probability);
    return h;
  }

 private:
  /// The fleet run(allocation, seed) simulates: allocation p treats p on
  /// the mostly-treated link and 1 - p on the other, in every shard.
  video::FleetConfig configured(double allocation, std::uint64_t seed) const {
    video::FleetConfig fleet = fleet_;
    fleet.seed = seed;
    fleet.base.treat_probability[0] = allocation;
    fleet.base.treat_probability[1] = 1.0 - allocation;
    return fleet;
  }

  video::FleetConfig fleet_;
  util::RunBudget budget_;
};

video::FleetConfig tuned_fleet(video::FleetConfig fleet,
                               const SourceOptions& opt) {
  fleet.base.days *= opt.duration_scale;
  fleet.base.faults.scale_time(opt.duration_scale);
  return fleet;
}

}  // namespace

core::ObservationTable run_fleet(const video::FleetConfig& fleet,
                                 util::Runner& runner) {
  video::validate(fleet);
  const std::size_t shards = fleet.shards.size();
  const std::size_t hours = fleet_hours(fleet);

  // Per-shard output slots (index-addressed: output order is independent
  // of completion order, the runner's determinism rule).
  std::vector<core::CellAccumulator> sketches(
      shards, core::CellAccumulator(hours));
  std::vector<video::ClusterResult> results(shards);
  runner.parallel_for(shards, [&](std::size_t s) {
    const video::ClusterConfig config = video::shard_cluster_config(fleet, s);
    core::CellAccumulator& sketch = sketches[s];
    results[s] = video::run_paired_links(
        config,
        [&sketch](const video::SessionRecord& record) { sketch.add(record); });
  });

  // Fixed left fold in shard-index order: floating-point sums depend on
  // merge order, so pinning it makes the table bit-reproducible.
  core::CellAccumulator merged(hours);
  for (std::size_t s = 0; s < shards; ++s) merged.merge(sketches[s]);

  core::ObservationTable table = merged.to_table();

  double started = 0.0, completed = 0.0, dropped = 0.0, corrupted = 0.0;
  for (const video::ClusterResult& r : results) {
    started += static_cast<double>(r.stats.sessions_started);
    completed += static_cast<double>(r.stats.sessions_completed);
    dropped += static_cast<double>(r.stats.records_dropped);
    corrupted += static_cast<double>(r.stats.records_corrupted);
  }
  table.add_aggregate("sessions_started", started);
  table.add_aggregate("sessions_completed", completed);
  table.add_aggregate("shards", static_cast<double>(shards));
  if (!fleet.base.faults.empty()) {
    table.add_aggregate("records_dropped", dropped);
    table.add_aggregate("records_corrupted", corrupted);
  }
  for (int link = 0; link < 2; ++link) {
    const std::string suffix = "/link" + std::to_string(link + 1);
    double peak = 0.0;
    for (const video::ClusterResult& r : results) {
      peak = std::max(peak, r.stats.peak_utilization[link]);
    }
    table.add_aggregate("peak_utilization" + suffix, peak);
    // Fleet-mean hourly diagnostics (every shard shares the horizon).
    const std::size_t series_hours = results[0].hourly_utilization[link].size();
    std::vector<double> utilization(series_hours, 0.0);
    std::vector<double> rtt(series_hours, 0.0);
    for (const video::ClusterResult& r : results) {
      for (std::size_t h = 0; h < series_hours; ++h) {
        utilization[h] += r.hourly_utilization[link][h];
        rtt[h] += r.hourly_rtt[link][h];
      }
    }
    for (std::size_t h = 0; h < series_hours; ++h) {
      utilization[h] /= static_cast<double>(shards);
      rtt[h] /= static_cast<double>(shards);
    }
    table.add_series("hourly_utilization" + suffix, std::move(utilization));
    table.add_series("hourly_rtt" + suffix, std::move(rtt));
  }
  return table;
}

video::FleetConfig canonical_fleet_config(std::size_t shards) {
  video::FleetConfig fleet;
  fleet.base = canonical_experiment_config();
  fleet.base.days = 1.0;  // a simulated fleet day
  fleet.seed = 2021;
  fleet.shards.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    video::ShardConfig shard;
    shard.name = "region" + std::to_string(s);
    // Each region is ~3x the canonical cluster (market and capacity scale
    // together, preserving the paper's congestion regime); 32 such
    // regions put >= 1M sessions through a simulated day.
    shard.capacity_scale = 3.0;
    shard.demand_scale = 3.0;
    // Phase-rotate the diurnal curve around the globe so the fleet's
    // aggregate day is flatter than any one region's.
    shard.demand_phase_hours = static_cast<int>((s * 24) / shards) % 24;
    fleet.shards.push_back(std::move(shard));
  }
  return fleet;
}

video::FleetConfig canonical_heterogeneous_fleet_config() {
  video::FleetConfig fleet;
  fleet.base = canonical_experiment_config();
  fleet.base.days = 1.0;
  fleet.seed = 4242;
  // Eight regions spanning small mobile-heavy to large UHD-heavy markets,
  // across timezones. Tilts keep device fractions inside [0, 1] for the
  // canonical 0.40/0.40/0.20 mix.
  const struct {
    const char* name;
    double capacity, demand;
    int phase;
    double tilt;
  } regions[] = {
      {"metro-east", 2.0, 2.2, 0, 0.10},
      {"metro-west", 2.0, 1.8, 3, 0.05},
      {"suburban", 1.0, 1.0, 1, 0.00},
      {"rural", 0.5, 0.4, 2, -0.10},
      {"apac-hub", 1.5, 1.6, 9, -0.05},
      {"emea-hub", 1.5, 1.4, 17, 0.00},
      {"latam", 0.8, 0.9, 21, -0.15},
      {"island-pop", 0.25, 0.2, 11, -0.20},
  };
  for (const auto& r : regions) {
    video::ShardConfig shard;
    shard.name = r.name;
    shard.capacity_scale = r.capacity;
    shard.demand_scale = r.demand;
    shard.demand_phase_hours = r.phase;
    shard.uhd_tilt = r.tilt;
    fleet.shards.push_back(std::move(shard));
  }
  return fleet;
}

void install_fleet_scenarios(std::map<std::string, SourceFactory>& reg) {
  reg.emplace("fleet/experiment", [](const SourceOptions& opt) {
    return std::make_unique<FleetSource>(
        tuned_fleet(canonical_fleet_config(32), opt), opt.budget);
  });
  reg.emplace("fleet/heterogeneous", [](const SourceOptions& opt) {
    return std::make_unique<FleetSource>(
        tuned_fleet(canonical_heterogeneous_fleet_config(), opt), opt.budget);
  });
}

}  // namespace xp::lab
