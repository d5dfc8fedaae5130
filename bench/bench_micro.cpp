// Google-benchmark microbenchmarks for the substrates: statistical
// kernels, the discrete-event TCP simulator, and the session-level video
// world. These guard the performance envelope that makes the figure
// benches tractable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/estimator.h"
#include "core/quantile_effects.h"
#include "core/session_metrics.h"
#include "lab/experiment.h"
#include "lab/fleet_scenarios.h"
#include "lab/registry.h"
#include "lab/scenarios.h"
#include "util/runner.h"
#include "sim/dumbbell.h"
#include "sim/event_queue.h"
#include "stats/descriptive.h"
#include "stats/ols.h"
#include "stats/rng.h"
#include "trace/replay.h"
#include "trace/writer.h"
#include "video/cluster.h"
#include "video/fluid_link.h"

namespace {

void BM_OlsHourlyFeNeweyWest(benchmark::State& state) {
  // The Appendix-B regression shape: 240 cells, 26 columns.
  xp::stats::Rng rng(1);
  const int n = 240;
  std::vector<double> y(n), arm(n);
  std::vector<std::size_t> hod(n);
  for (int i = 0; i < n; ++i) {
    y[i] = rng.normal(100.0, 5.0);
    arm[i] = i % 2;
    hod[i] = static_cast<std::size_t>(i / 2) % 24;
  }
  xp::stats::DesignBuilder design;
  design.intercept();
  design.column(arm, "treated");
  design.fixed_effects(hod, 24, "hour");
  const auto x = design.build();
  xp::stats::OlsOptions options;
  options.covariance = xp::stats::CovarianceType::kNeweyWest;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::stats::ols_fit(x, y, options));
  }
}
BENCHMARK(BM_OlsHourlyFeNeweyWest);

void BM_QuantileLadderBootstrap(benchmark::State& state) {
  // The Section-2 tail-effect ladder (median / p90 / p99) over a
  // session-sized observation table — the draw-and-count resampling
  // kernel (counts per unit, a rank walk down from the top) behind every
  // quantile figure. The ladder is serial, so this is the kernel alone.
  xp::stats::Rng rng(4);
  std::vector<xp::core::Observation> rows(4000);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].unit = i;
    rows[i].treated = (i % 2) == 1;
    rows[i].outcome = rng.lognormal(0.0, 1.0) + (rows[i].treated ? 0.05 : 0.0);
  }
  const double quantiles[] = {0.5, 0.9, 0.99};
  xp::core::QuantileEffectOptions options;
  options.bootstrap_replicates = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        xp::core::quantile_effect_ladder(rows, quantiles, options));
  }
}
BENCHMARK(BM_QuantileLadderBootstrap)->Unit(benchmark::kMillisecond);

void BM_Quantile(benchmark::State& state) {
  xp::stats::Rng rng(2);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& x : xs) x = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::stats::quantile(xs, 0.99));
  }
}
BENCHMARK(BM_Quantile)->Arg(1000)->Arg(100000);

void BM_RngNormal(benchmark::State& state) {
  xp::stats::Rng rng(3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_MaxMinFairAllocation(benchmark::State& state) {
  xp::stats::Rng rng(4);
  std::vector<double> demands(static_cast<std::size_t>(state.range(0)));
  for (auto& d : demands) d = rng.uniform(1e6, 50e6);
  std::vector<double> alloc(demands.size()), scratch;
  for (auto _ : state) {
    // The positive-demand sum and count are timed too: the cluster's
    // gather pass pays for them before every water-fill.
    double sum = 0.0;
    std::size_t count = 0;
    for (double d : demands) {
      sum += std::max(d, 0.0);
      count += d > 0.0 ? 1 : 0;
    }
    benchmark::DoNotOptimize(xp::video::max_min_fair_allocation_presummed(
        demands, sum, count, 2e9, alloc, scratch));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaxMinFairAllocation)->Arg(100)->Arg(500);

/// Pop and run the earliest event (the queue is never empty here).
void fire_next(xp::sim::EventQueue& q) {
  xp::sim::Time at = 0.0;
  xp::sim::EventQueue::Callback callback;
  q.pop_until(std::numeric_limits<xp::sim::Time>::infinity(), at, callback);
  callback();
}

void BM_EventQueueScheduleFire(benchmark::State& state) {
  // Steady-state event cycle at a fixed pending depth: one schedule + one
  // pop per iteration. Zero heap allocations once warmed.
  const auto depth = static_cast<std::size_t>(state.range(0));
  xp::sim::EventQueue q;
  double t = 0.0;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(t += 1.0, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    q.schedule(t += 1.0, [&sink] { ++sink; });
    fire_next(q);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(64)->Arg(1024);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  // Timer churn, the RTO pattern: arm a timer, cancel it before it fires.
  const auto depth = static_cast<std::size_t>(state.range(0));
  xp::sim::EventQueue q;
  double t = 0.0;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(t += 1.0, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    q.cancel(q.schedule(t + 0.5, [&sink] { ++sink; }));
    q.schedule(t += 1.0, [&sink] { ++sink; });
    fire_next(q);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleCancel)->Arg(64)->Arg(1024);

void BM_EventQueueLargeCapture(benchmark::State& state) {
  // The hottest real capture shape: [this, ack] is ~152 bytes, the reason
  // SmallCallback's inline buffer is 160 bytes.
  xp::sim::EventQueue q;
  struct AckSized {
    double payload[19];
  } ack{};
  double t = 0.0;
  double sink = 0.0;
  for (auto _ : state) {
    q.schedule(t += 1.0, [ack, &sink] { sink += ack.payload[0]; });
    fire_next(q);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueLargeCapture);

void BM_DumbbellSimSecond(benchmark::State& state) {
  // Cost of one simulated second of the 10-flow 2 Gb/s lab world.
  for (auto _ : state) {
    xp::sim::DumbbellConfig config;
    config.bottleneck_bps = 2e9;
    config.warmup = 0.5;
    config.duration = 1.5;
    std::vector<xp::sim::AppSpec> specs(10, xp::sim::AppSpec{});
    benchmark::DoNotOptimize(xp::sim::run_dumbbell(config, specs));
  }
}
BENCHMARK(BM_DumbbellSimSecond)->Unit(benchmark::kMillisecond);

void BM_DumbbellBbrVsCubicCell(benchmark::State& state) {
  // One cell of perfbench's lab_sweep through the registry: five BBR and
  // five Cubic apps on the lossy Section 3 dumbbell, where SACK loss
  // recovery (the scoreboard's hole search) is the hot path that the
  // low-loss BM_DumbbellSimSecond world never reaches.
  xp::lab::SourceOptions options;
  options.duration_scale = 0.05;
  const auto source = xp::lab::make_scenario("dumbbell/bbr_vs_cubic", options);
  xp::util::Runner runner(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->run(0.5, /*seed=*/1, runner));
  }
}
BENCHMARK(BM_DumbbellBbrVsCubicCell)->Unit(benchmark::kMillisecond);

void BM_PairedLinksDay(benchmark::State& state) {
  // One simulated day of the canonical Section 4 experiment world — the
  // fluid paired-link cluster that generates every figure's telemetry.
  // This is the data-generating hot path the CI gate watches alongside
  // the packet-level kernel (BM_DumbbellSimSecond).
  xp::video::ClusterConfig config = xp::lab::canonical_experiment_config();
  config.days = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::video::run_paired_links(config));
  }
}
BENCHMARK(BM_PairedLinksDay)->Unit(benchmark::kMillisecond);

void BM_HourlyAggregation(benchmark::State& state) {
  xp::stats::Rng rng(5);
  std::vector<xp::core::Observation> rows(100000);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].outcome = rng.normal(10.0, 2.0);
    rows[i].treated = rng.bernoulli(0.5);
    rows[i].hour_index = i % 120;
    rows[i].hour_of_day = rows[i].hour_index % 24;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::core::aggregate_hourly(rows));
  }
}
BENCHMARK(BM_HourlyAggregation)->Unit(benchmark::kMillisecond);

void BM_MetricTable(benchmark::State& state) {
  // The records -> observations step every per-session backend takes
  // (core::metric_table): one paired_links/experiment day's sessions,
  // simulated once outside the loop, tabled into all twelve metric
  // columns per iteration. It writes one Observation row per session per
  // metric, so it moves with the row's size.
  xp::video::ClusterConfig config = xp::lab::canonical_experiment_config();
  config.days = 1.0;
  const auto sessions = xp::video::run_paired_links(config).sessions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::core::metric_table(sessions));
  }
}
BENCHMARK(BM_MetricTable)->Unit(benchmark::kMillisecond);

void BM_RunnerAllocationSweep(benchmark::State& state) {
  // Wall-clock scaling of the Figure 2 sweep across thread counts; each
  // point is an independent deterministic simulator run.
  xp::util::Runner runner(static_cast<std::size_t>(state.range(0)));
  xp::lab::LabConfig config;
  config.dumbbell.bottleneck_bps = 500e6;
  config.dumbbell.warmup = 0.25;
  config.dumbbell.duration = 1.0;
  config.num_apps = 7;
  std::vector<xp::lab::LabRun> sweep(config.num_apps + 1);
  for (auto _ : state) {
    runner.parallel_for(sweep.size(), [&](std::size_t treated) {
      sweep[treated] = xp::lab::run_lab(xp::lab::Treatment::kTwoConnections,
                                        treated, config);
    });
    benchmark::DoNotOptimize(sweep.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RunnerAllocationSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ExperimentPipeline(benchmark::State& state) {
  // End-to-end cost of the registry + pipeline seam: spec -> source
  // lookup -> replicate fan-out -> observation tables, riding the
  // paired-link data source every figure bench uses (one simulated day
  // per replicate world, so the diurnal peak is inside the horizon).
  xp::util::Runner runner(static_cast<std::size_t>(state.range(0)));
  xp::lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning.duration_scale = 0.2;
  spec.replicates = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::lab::run_experiment(spec, runner));
  }
}
BENCHMARK(BM_ExperimentPipeline)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RecordPathAnalysis(benchmark::State& state) {
  // The record-path analysis kernels (account means, hourly cells, row
  // guards) behind the four estimators that read paired per-session
  // tables. The report is simulated once, outside the loop; each
  // iteration reads every metric of it the way the pipeline's analysis
  // stage does, one (estimator, metric) job after another.
  xp::util::Runner runner(1);
  xp::lab::ExperimentSpec spec;
  spec.scenario = "paired_links/experiment";
  spec.tuning.duration_scale = 0.2;
  spec.replicates = 2;
  const xp::lab::ExperimentReport report =
      xp::lab::run_experiment(spec, runner);
  std::vector<std::unique_ptr<xp::core::Estimator>> estimators;
  for (const char* key : {"naive/ab", "paired_link/tte",
                          "paired_link/spillover", "aa/null"}) {
    estimators.push_back(xp::core::make_estimator(key));
  }
  const std::vector<std::string> metrics =
      report.first_ok_cell()->table.metrics;
  const xp::core::EstimatorOptions options;
  for (auto _ : state) {
    for (const auto& estimator : estimators) {
      for (const std::string& metric : metrics) {
        benchmark::DoNotOptimize(
            estimator->estimate_metric(report, metric, options));
      }
    }
  }
}
BENCHMARK(BM_RecordPathAnalysis)->Unit(benchmark::kMillisecond);

void BM_TraceReplayDay(benchmark::State& state) {
  // One block-bootstrap replicate of a recorded day (src/trace/): the
  // trace backend's analogue of BM_PairedLinksDay. Construction (parse +
  // cell indexing) happens once outside the loop, like a long-lived
  // replay service; the loop measures one seed-pure replicate draw plus
  // the metric-column build.
  xp::video::ClusterConfig config = xp::lab::canonical_experiment_config();
  config.days = 1.0;
  const auto sessions = xp::video::run_paired_links(config).sessions;
  xp::trace::TraceMeta meta;
  meta.allocation = 0.95;
  meta.horizon_s = 86400.0;
  const xp::trace::TraceSource source(
      xp::trace::make_log(sessions, meta), {});
  xp::util::Runner runner(1);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.run(0.95, seed++, runner));
  }
}
BENCHMARK(BM_TraceReplayDay)->Unit(benchmark::kMillisecond);

void BM_FleetDay(benchmark::State& state) {
  // One simulated day of the 8-region heterogeneous fleet through the
  // streaming path (lab/fleet_scenarios.h): every shard folds its
  // retiring sessions into hourly-cell sketches which are then merged in
  // shard-index order — the fleet-scale data-generating hot path the CI
  // gate watches alongside BM_PairedLinksDay. Serial runner on purpose:
  // the gate compares cpu_time, and one thread makes that the full
  // deterministic shard work (~90k sessions per iteration) instead of
  // scheduling-dependent main-thread time; parallel scaling is covered
  // by BM_RunnerAllocationSweep.
  xp::util::Runner runner(1);
  const xp::video::FleetConfig fleet =
      xp::lab::canonical_heterogeneous_fleet_config();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xp::lab::run_fleet(fleet, runner));
  }
}
BENCHMARK(BM_FleetDay)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN, plus a default --benchmark_out so every run leaves a
// machine-readable BENCH_micro.json behind (the perf trajectory is tracked
// across PRs). An explicit --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool has_format = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) {
      has_format = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) args.push_back(out_flag.data());
  if (!has_out && !has_format) args.push_back(format_flag.data());
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
