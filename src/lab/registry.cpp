#include "lab/registry.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/session_metrics.h"
#include "lab/fleet_scenarios.h"
#include "trace/codec.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "util/string_registry.h"
#include "video/cluster.h"

namespace xp::lab {

namespace {

// ------------------------------------------------------------- builtins ----

/// Section 3 dumbbell lab: one treatment, columns for every app metric.
class DumbbellSource final : public DataSource {
 public:
  DumbbellSource(Treatment treatment, LabConfig config)
      : treatment_(treatment), config_(config) {}

  double default_allocation() const noexcept override { return 0.5; }

  ObservationTable run(double allocation, std::uint64_t seed,
                       util::Runner&) const override {
    LabConfig config = config_;
    config.seed = seed;
    const auto treated_count = static_cast<std::size_t>(std::lround(
        allocation * static_cast<double>(config.num_apps)));
    const LabRun lab = run_lab(treatment_, treated_count, config);

    ObservationTable table;
    const auto add = [&](core::Metric metric, auto value_of) {
      std::vector<core::Observation> rows;
      rows.reserve(lab.units.size());
      for (std::size_t i = 0; i < lab.units.size(); ++i) {
        core::Observation obs;
        obs.unit = i;
        obs.account = i;
        obs.treated = lab.units[i].treated;
        obs.outcome = value_of(lab.units[i]);
        rows.push_back(obs);
      }
      table.add_column(std::string(core::metric_name(metric)),
                       std::move(rows));
    };
    add(core::Metric::kThroughput,
        [](const LabUnit& u) { return u.throughput_bps; });
    add(core::Metric::kRetransmitFraction,
        [](const LabUnit& u) { return u.retransmit_fraction; });
    add(core::Metric::kMeanRtt, [](const LabUnit& u) { return u.mean_rtt; });
    add(core::Metric::kMinRtt, [](const LabUnit& u) { return u.min_rtt; });

    table.add_aggregate("aggregate_throughput_bps",
                        lab.aggregate_throughput_bps);
    table.add_aggregate("link_utilization", lab.link_utilization);
    return table;
  }

  double intended_treated_fraction(double allocation) const noexcept override {
    // run() treats exactly lround(allocation * num_apps) apps; the SRM
    // null is that integer count, not the unrounded fraction.
    const auto n = static_cast<double>(config_.num_apps);
    return n > 0.0 ? std::round(allocation * n) / n : allocation;
  }

 private:
  Treatment treatment_;
  LabConfig config_;
};

/// Section 4 paired-link cluster week: columns for the full telemetry
/// metric set, plus the hourly diagnostics as series.
class PairedLinkSource final : public DataSource {
 public:
  PairedLinkSource(video::ClusterConfig config, bool allocation_sets_treatment)
      : config_(config),
        allocation_sets_treatment_(allocation_sets_treatment) {}

  double default_allocation() const noexcept override {
    return allocation_sets_treatment_ ? config_.treat_probability[0] : 0.0;
  }

  ObservationTable run(double allocation, std::uint64_t seed,
                       util::Runner&) const override {
    const video::ClusterConfig config = configured(allocation, seed);
    const video::ClusterResult result = video::run_paired_links(config);
    ObservationTable table = core::metric_table(result.sessions);
    table.add_aggregate("sessions_started",
                        static_cast<double>(result.stats.sessions_started));
    table.add_aggregate(
        "sessions_completed",
        static_cast<double>(result.stats.sessions_completed));
    // Telemetry-fault tallies only exist under a fault plan, keeping the
    // fault-free tables bit-identical to their pre-fault-layer shape.
    if (!config_.faults.empty()) {
      table.add_aggregate("records_dropped",
                          static_cast<double>(result.stats.records_dropped));
      table.add_aggregate(
          "records_corrupted",
          static_cast<double>(result.stats.records_corrupted));
    }
    for (int link = 0; link < 2; ++link) {
      const std::string suffix = "/link" + std::to_string(link + 1);
      table.add_aggregate("peak_utilization" + suffix,
                          result.stats.peak_utilization[link]);
      table.add_series("hourly_utilization" + suffix,
                       result.hourly_utilization[link]);
      table.add_series("hourly_rtt" + suffix, result.hourly_rtt[link]);
    }
    return table;
  }

  double intended_treated_fraction(double allocation) const noexcept override {
    return video::intended_treated_fraction(configured(allocation, 0));
  }

 private:
  /// The world run(allocation, seed) simulates: allocation p treats p on
  /// the mostly-treated link and 1 - p on the other.
  video::ClusterConfig configured(double allocation,
                                  std::uint64_t seed) const {
    video::ClusterConfig config = config_;
    config.seed = seed;
    if (allocation_sets_treatment_) {
      config.treat_probability[0] = allocation;
      config.treat_probability[1] = 1.0 - allocation;
    }
    return config;
  }

  video::ClusterConfig config_;
  bool allocation_sets_treatment_;
};

// ------------------------------------------------------------- registry ----

// Apply the per-factory SourceOptions knobs every backend honors:
// duration_scale shrinks the horizon, budget caps the run's simulated
// work in the backend's own currency (events / ticks; trace factories
// map it to rows themselves).
LabConfig tuned(LabConfig config, const SourceOptions& opt) {
  config.dumbbell.warmup *= opt.duration_scale;
  config.dumbbell.duration *= opt.duration_scale;
  config.dumbbell.max_events = opt.budget.max_work_units;
  return config;
}

video::ClusterConfig tuned(video::ClusterConfig config,
                           const SourceOptions& opt) {
  config.days *= opt.duration_scale;
  // Fault windows are authored in canonical 5-day seconds; shrink them
  // with the horizon or a smoke run never reaches its faults.
  config.faults.scale_time(opt.duration_scale);
  config.max_ticks = opt.budget.max_work_units;
  return config;
}

void install_builtins(std::map<std::string, SourceFactory>& reg) {
  const auto dumbbell = [&](const char* name, Treatment treatment) {
    reg.emplace(name, [treatment](const SourceOptions& opt) {
      return std::make_unique<DumbbellSource>(
          treatment, tuned(canonical_lab_config(), opt));
    });
  };
  dumbbell("dumbbell/two_connections", Treatment::kTwoConnections);
  dumbbell("dumbbell/pacing", Treatment::kPacing);
  dumbbell("dumbbell/bbr_vs_cubic", Treatment::kBbrVsCubic);

  reg.emplace("paired_links/experiment", [](const SourceOptions& opt) {
    return std::make_unique<PairedLinkSource>(
        tuned(canonical_experiment_config(), opt),
        /*allocation_sets_treatment=*/true);
  });
  reg.emplace("paired_links/baseline", [](const SourceOptions& opt) {
    // The A/A week: the canonical world with no treatment on either link.
    video::ClusterConfig config = tuned(canonical_experiment_config(), opt);
    config.treat_probability[0] = 0.0;
    config.treat_probability[1] = 0.0;
    return std::make_unique<PairedLinkSource>(
        config, /*allocation_sets_treatment=*/false);
  });

  // Policy-backed experiment families: the canonical week with the arm
  // policies swapped out (video/policy.h). One registry line per
  // treatment — the whole point of the policy layer.
  const auto paired_policy = [&](const char* name, const char* control,
                                 const char* treatment) {
    reg.emplace(name, [control, treatment](const SourceOptions& opt) {
      video::ClusterConfig config = tuned(canonical_experiment_config(), opt);
      config.control_policy = control;
      config.treatment_policy = treatment;
      return std::make_unique<PairedLinkSource>(
          config, /*allocation_sets_treatment=*/true);
    });
  };
  // Deeper capping than the 2020 program ran: does halving the ceiling
  // double the congestion relief?
  paired_policy("paired_links/cap_50", "control", "cap/0.5");
  // Resolution-preserving trim: drop the top two encodes instead of
  // capping fractionally.
  paired_policy("paired_links/drop_top", "control", "drop_top/2");
  // ABR as the treatment: same ladders, hybrid control vs rate-based
  // treatment — client adaptation policy under shared congestion.
  paired_policy("paired_links/abr_swap", "control", "rate");
  // Head-to-head ABR experiment: buffer-based BBA vs throughput-based.
  paired_policy("paired_links/bba_vs_rate", "bba", "rate");

  // Fault-injected experiment weeks (video/faults.h): the canonical
  // capping experiment run on degraded infrastructure. Windows are in
  // canonical 5-day seconds; scaled() shrinks them with the horizon.
  const auto paired_faults = [&](const char* name,
                                 video::FaultPlan (*plan)()) {
    reg.emplace(name, [plan](const SourceOptions& opt) {
      video::ClusterConfig config = canonical_experiment_config();
      config.faults = plan();
      return std::make_unique<PairedLinkSource>(
          tuned(config, opt),
          /*allocation_sets_treatment=*/true);
    });
  };
  // Link 0 goes dark mid-week for ~2.4 hours, then link 1 runs at 40%
  // capacity through an evening peak two days later.
  paired_faults("paired_links/outage", [] {
    video::FaultPlan plan;
    plan.link_faults.push_back({/*link=*/0, 1.75 * 86400.0, 1.85 * 86400.0,
                                /*capacity_factor=*/0.0});
    plan.link_faults.push_back({/*link=*/1, 3.20 * 86400.0, 3.50 * 86400.0,
                                /*capacity_factor=*/0.4});
    return plan;
  });
  // A flash crowd multiplies arrivals by 1.8x over a ~6-hour window.
  paired_faults("paired_links/flash_crowd", [] {
    video::FaultPlan plan;
    plan.demand_faults.push_back(
        {2.70 * 86400.0, 2.95 * 86400.0, /*rate_multiplier=*/1.8});
    return plan;
  });
  // The world is healthy; the collection pipeline is not: 5% of session
  // records vanish and 3% lose their network metrics.
  paired_faults("paired_links/lossy_telemetry", [] {
    video::FaultPlan plan;
    plan.telemetry.drop_probability = 0.05;
    plan.telemetry.corrupt_probability = 0.03;
    return plan;
  });

  // Trace-replay backend (src/trace/): recorded session logs through the
  // same estimator stack. trace/replay reads a log file; replicate weeks
  // come from seed-pure block-bootstrap over hourly cells (the log is one
  // realized week, the bootstrap synthesizes its stability band).
  reg.emplace("trace/replay", [](const SourceOptions& opt) {
    std::string path = opt.trace_path;
    if (path.empty()) {
      if (const char* env = std::getenv("XP_TRACE_FILE")) path = env;
    }
    if (path.empty()) {
      throw std::invalid_argument(
          "trace/replay: no log file named — set SourceOptions::trace_path "
          "or the XP_TRACE_FILE environment variable");
    }
    trace::ReplayConfig config;
    config.duration_scale = opt.duration_scale;
    config.max_rows = opt.budget.max_work_units;
    return std::make_unique<trace::TraceSource>(trace::read_trace_file(path),
                                                std::move(config));
  });

  // Simulation-vs-replay calibration (the loop the paper closes on
  // production data): simulate the canonical capping week, export it
  // through the session-log schema, and serve the export back as a
  // DataSource. Headline estimates replayed from the log should agree
  // with the direct paired_links/experiment run within the bootstrap
  // band — tests/trace_test.cpp and examples/trace_replay.cpp check it.
  reg.emplace("trace/self_calibration", [](const SourceOptions& opt) {
    // The construction-time simulation runs unbudgeted (it is the
    // canonical, bounded week); the trace backend's budget currency is
    // replayed rows, applied below like trace/replay.
    SourceOptions sim_opt = opt;
    sim_opt.budget = {};
    video::ClusterConfig config =
        tuned(canonical_experiment_config(), sim_opt);
    const video::ClusterResult result = video::run_paired_links(config);
    trace::TraceMeta meta;
    meta.source = "paired_links/experiment";
    meta.allocation = config.treat_probability[0];
    meta.intended_treated_fraction = video::intended_treated_fraction(config);
    meta.seed = config.seed;
    meta.horizon_s = config.days * 86400.0;
    trace::ReplayConfig replay;
    // The horizon was already scaled at simulation time; the replay side
    // keeps the whole exported log.
    replay.duration_scale = 1.0;
    replay.max_rows = opt.budget.max_work_units;
    return std::make_unique<trace::TraceSource>(
        trace::make_log(result.sessions, std::move(meta)), std::move(replay));
  });

  // Fleet backend (lab/fleet_scenarios.cpp): sharded multi-region worlds
  // streamed into merged hourly-cell sketches.
  install_fleet_scenarios(reg);
}

util::StringRegistry<SourceFactory>& registry() {
  static util::StringRegistry<SourceFactory> instance(
      "scenario", install_builtins);
  return instance;
}

}  // namespace

void register_scenario(std::string name, SourceFactory factory) {
  registry().add(std::move(name), std::move(factory));
}

std::unique_ptr<DataSource> make_scenario(std::string_view name,
                                          const SourceOptions& options) {
  return registry().find(name)(options);
}

std::vector<std::string> scenario_names() { return registry().names(); }

LabConfig canonical_lab_config() {
  LabConfig config;  // 10 Gb/s dumbbell, 10 apps, 3 s warmup + 10 s window
  return config;
}

video::ClusterConfig canonical_experiment_config() {
  video::ClusterConfig config;  // 5-day week, 95%/5% capping
  config.seed = 2021;
  return config;
}

}  // namespace xp::lab
