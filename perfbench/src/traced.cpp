#include "traced.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/cell_accumulator.h"
#include "core/data_quality.h"
#include "lab/fleet_scenarios.h"
#include "lab/journal.h"
#include "lab/registry.h"
#include "stats/rng.h"
#include "util/runner.h"
#include "video/cluster.h"
#include "video/fleet.h"

namespace perfbench {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// FleetSource::run + lab::run_fleet, one public call at a time.
xp::core::ObservationTable traced_fleet(const xp::lab::ExperimentSpec& spec,
                                        double allocation, std::uint64_t seed,
                                        SpanLog& log, int parent) {
  if (spec.tuning.budget.max_work_units != 0) {
    throw std::invalid_argument("traced fleet run: budgets are not traced");
  }
  xp::video::FleetConfig fleet =
      spec.scenario == "fleet/heterogeneous"
          ? xp::lab::canonical_heterogeneous_fleet_config()
          : xp::lab::canonical_fleet_config(32);
  fleet.base.days *= spec.tuning.duration_scale;
  fleet.base.faults.scale_time(spec.tuning.duration_scale);
  fleet.seed = seed;
  fleet.base.treat_probability[0] = allocation;
  fleet.base.treat_probability[1] = 1.0 - allocation;
  xp::video::validate(fleet);

  const std::size_t shards = fleet.shards.size();
  const auto hours = static_cast<std::size_t>(fleet.base.days * 24.0) + 1;
  std::vector<xp::core::CellAccumulator> sketches(
      shards, xp::core::CellAccumulator(hours));
  std::vector<xp::video::ClusterResult> results(shards);
  {
    ScopedSpan stage(log, "video.shard_stage", parent);
    xp::util::global_runner().parallel_for(shards, [&](std::size_t s) {
      ScopedSpan span(log, "video.shard", stage.id());
      const xp::video::ClusterConfig config =
          xp::video::shard_cluster_config(fleet, s);
      xp::core::CellAccumulator& sketch = sketches[s];
      results[s] = xp::video::run_paired_links(
          config,
          [&sketch](const xp::video::SessionRecord& r) { sketch.add(r); });
    });
  }
  xp::core::CellAccumulator merged(hours);
  {
    ScopedSpan span(log, "core.sketch_merge", parent);
    for (std::size_t s = 0; s < shards; ++s) merged.merge(sketches[s]);
  }
  xp::core::ObservationTable table;
  {
    ScopedSpan span(log, "core.sketch_to_table", parent);
    table = merged.to_table();
  }

  // Aggregates and series exactly as run_fleet lays them out.
  double started = 0.0, completed = 0.0, dropped = 0.0, corrupted = 0.0;
  for (const xp::video::ClusterResult& r : results) {
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
    for (const xp::video::ClusterResult& r : results) {
      peak = std::max(peak, r.stats.peak_utilization[link]);
    }
    table.add_aggregate("peak_utilization" + suffix, peak);
    const std::size_t series_hours = results[0].hourly_utilization[link].size();
    std::vector<double> utilization(series_hours, 0.0);
    std::vector<double> rtt(series_hours, 0.0);
    for (const xp::video::ClusterResult& r : results) {
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

}  // namespace

std::string estimator_span_name(const std::string& key) {
  std::string stem = key;
  std::replace(stem.begin(), stem.end(), '/', '_');
  return "core.est." + stem;
}

TracedRun run_traced(const xp::lab::ExperimentSpec& spec,
                     const std::string& journal_dir, int run_id) {
  SpanLog log(run_id);
  TracedRun out;
  xp::lab::ExperimentReport& report = out.report;
  xp::util::Runner& runner = xp::util::global_runner();
  {
    ScopedSpan root(log, "lab.run_experiment", -1);

    std::unique_ptr<xp::lab::DataSource> source;
    std::vector<std::unique_ptr<xp::core::Estimator>> estimators;
    {
      ScopedSpan span(log, "lab.source_build", root.id());
      source = xp::lab::make_scenario(spec.scenario, spec.tuning);
      for (const std::string& key : spec.estimators) {
        estimators.push_back(xp::core::make_estimator(key));
      }
    }
    report.scenario = spec.scenario;
    report.allocations = spec.allocations;
    if (report.allocations.empty()) {
      report.allocations.push_back(source->default_allocation());
    }
    {
      xp::lab::ExperimentSpec resolved = spec;
      resolved.allocations = report.allocations;
      xp::lab::validate(resolved);
    }
    report.replicates = spec.replicates;
    report.cells.resize(report.allocations.size() * report.replicates);

    std::unique_ptr<xp::lab::CellJournal> journal;
    std::uint64_t fingerprint = 0;
    if (!journal_dir.empty()) {
      ScopedSpan span(log, "lab.journal_open", root.id());
      fingerprint = xp::lab::journal_fingerprint(spec);
      if (const std::uint64_t source_fp = source->config_fingerprint();
          source_fp != 0) {
        fingerprint = xp::stats::mix64(fingerprint ^ source_fp);
      }
      journal = std::make_unique<xp::lab::CellJournal>(
          xp::lab::journal_path(journal_dir));
    }

    const bool fleet = starts_with(spec.scenario, "fleet/");
    const char* simulate_span =
        starts_with(spec.scenario, "dumbbell/") ? "sim.simulate"
                                                : "video.simulate";
    std::vector<char> hits(report.cells.size(), 0);
    {
      ScopedSpan stage(log, "lab.cell_stage", root.id());
      // The pipeline's fail_fast path: the first error propagates. Every
      // benchmark workload runs clean, so retries/skips are not traced.
      runner.parallel_for(report.cells.size(), [&](std::size_t i) {
        ScopedSpan cell_span(log, "lab.cell", stage.id());
        xp::core::ExperimentCell& cell = report.cells[i];
        cell.allocation = report.allocations[i / report.replicates];
        cell.replicate = i % report.replicates;
        const std::uint64_t seed = xp::lab::cell_seed(spec.seed, i);
        const std::uint64_t key =
            journal ? xp::lab::journal_cell_key(fingerprint, cell.allocation,
                                                seed)
                    : 0;
        if (journal) {
          ScopedSpan span(log, "lab.journal_find", cell_span.id());
          if (const xp::core::ExperimentCell* hit =
                  journal->find(key, cell.allocation, seed)) {
            cell.seed = hit->seed;
            cell.status = hit->status;
            cell.quality = hit->quality;
            cell.table = hit->table;
            hits[i] = 1;
            return;
          }
        }
        cell.seed = seed;
        cell.status.attempts = 1;
        if (fleet) {
          cell.table = traced_fleet(spec, cell.allocation, seed, log,
                                    cell_span.id());
        } else {
          ScopedSpan span(log, simulate_span, cell_span.id());
          cell.table = source->run(cell.allocation, seed);
        }
        cell.status.state = xp::core::CellState::kOk;
        {
          ScopedSpan span(log, "core.quality_gate", cell_span.id());
          cell.quality = xp::core::assess_quality(
              cell.table, source->intended_treated_fraction(cell.allocation),
              spec.quality);
        }
        if (cell.quality.unusable()) {
          cell.status.state = xp::core::CellState::kQualityHold;
          cell.status.error = cell.quality.summary();
        }
        if (journal) {
          ScopedSpan span(log, "lab.journal_append", cell_span.id());
          journal->append(key, cell);
        }
      });
    }
    out.journal_hits =
        static_cast<std::size_t>(std::count(hits.begin(), hits.end(), 1));

    if (!estimators.empty()) {
      ScopedSpan stage(log, "lab.analysis_stage", root.id());
      const xp::core::ExperimentCell* first_ok = report.first_ok_cell();
      const std::vector<std::string> metrics =
          first_ok ? first_ok->table.metrics : std::vector<std::string>{};
      const std::size_t num_metrics = metrics.size();
      std::vector<std::string> span_names;
      for (const std::string& key : spec.estimators) {
        span_names.push_back(estimator_span_name(key));
      }
      std::vector<std::vector<xp::core::EstimateRow>> slots(
          estimators.size() * num_metrics);
      runner.parallel_for(slots.size(), [&](std::size_t i) {
        const std::size_t e = i / num_metrics;
        const std::size_t m = i % num_metrics;
        ScopedSpan span(log, span_names[e], stage.id());
        xp::core::EstimatorOptions options;
        options.analysis = spec.analysis;
        options.seed = xp::core::metric_seed(
            xp::lab::estimator_seed(spec.seed, e), m);
        slots[i] = estimators[e]->estimate_metric(report, metrics[m], options);
      });
      report.estimates.resize(estimators.size());
      for (std::size_t e = 0; e < estimators.size(); ++e) {
        xp::core::EstimateTable& table = report.estimates[e];
        table.estimator = spec.estimators[e];
        for (std::size_t m = 0; m < num_metrics; ++m) {
          for (xp::core::EstimateRow& row : slots[e * num_metrics + m]) {
            table.add_row(std::move(row));
          }
        }
      }
    }
  }
  out.spans = log.spans();
  return out;
}

std::map<std::string, double> span_metrics(const xp::lab::ExperimentSpec& spec,
                                           const TracedRun& run,
                                           std::size_t threads) {
  const std::vector<Span>& spans = run.spans;
  std::map<std::string, double> m;
  m["util.cell_stage.busy_frac"] =
      busy_fraction(spans, "lab.cell_stage", threads);
  m["util.shard_stage.busy_frac"] =
      busy_fraction(spans, "video.shard_stage", threads);
  m["util.analysis_stage.busy_frac"] =
      busy_fraction(spans, "lab.analysis_stage", threads);

  m["lab.source_build_s"] = total_seconds(spans, "lab.source_build");
  m["lab.cell_stage_s"] = total_seconds(spans, "lab.cell_stage");
  m["lab.analysis_stage_s"] = total_seconds(spans, "lab.analysis_stage");
  m["lab.journal_open_s"] = total_seconds(spans, "lab.journal_open");
  const std::size_t cells = run.report.cells.size();
  m["lab.journal_hit_frac"] =
      cells == 0 ? 0.0 : double(run.journal_hits) / double(cells);
  m["lab.run_experiment.self_s"] =
      self_seconds(spans, find_span(spans, "lab.run_experiment"));

  const double sim_busy = total_seconds(spans, "sim.simulate");
  m["sim.cell_busy_s"] = sim_busy;
  // Simulated seconds per dumbbell cell: the (scaled) run horizon.
  const double sim_seconds =
      double(cells) * xp::lab::canonical_lab_config().dumbbell.duration *
      spec.tuning.duration_scale;
  m["sim.sim_s_per_host_s"] = sim_busy > 0.0 ? sim_seconds / sim_busy : 0.0;

  m["video.cell_busy_s"] = total_seconds(spans, "video.simulate");
  m["video.shard_busy_s"] = total_seconds(spans, "video.shard");

  m["core.quality_gate_s"] = total_seconds(spans, "core.quality_gate");
  m["core.sketch_merge_s"] = total_seconds(spans, "core.sketch_merge");
  m["core.sketch_to_table_s"] = total_seconds(spans, "core.sketch_to_table");
  for (const std::string& key : xp::core::estimator_names()) {
    const std::string name = estimator_span_name(key);
    m[name + "_s"] = total_seconds(spans, name);
  }
  return m;
}

}  // namespace perfbench
