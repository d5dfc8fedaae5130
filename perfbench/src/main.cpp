// xp_perfbench: spec-to-report benchmark of the experiment pipeline.
//
//   xp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   xp_perfbench --list-metrics
//
// One process runs one workload's spec through lab::run_experiment in a
// closed loop (the next spec run starts when the previous report is
// back) on the global runner pinned to two threads, checking every report.
// --trace 0 prints the end-to-end metrics; --trace 1 spends half the time
// on the same untraced loop and half on the traced stage-by-stage rebuild
// (traced.h), and prints the per-layer metrics. The last stdout line is
// the JSON result; everything before it is a human-readable summary.
// Journals and the span file go under kWorkDir, relative to the checkout
// root it runs from. perfbench/run.py builds this binary and forwards its
// arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "digest.h"
#include "lab/experiment.h"
#include "lab/journal.h"
#include "lab/registry.h"
#include "traced.h"
#include "util/runner.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace {

// Two runner threads (caller included) on a 4-vCPU box: the benchmark's
// own pool plus the library's nested fan-outs (fleet shards, quantile
// rungs, bootstrap replicates) all go through this one global pool.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kMinSpecRuns = 3;
constexpr const char* kWorkDir = ".bench_build/perfbench-run";

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"report_s", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

const MetricDef kPerLayer[] = {
    {"util.cell_stage.busy_frac", "frac", "higher"},
    {"util.shard_stage.busy_frac", "frac", "higher"},
    {"util.analysis_stage.busy_frac", "frac", "higher"},
    {"lab.source_build_s", "s", "lower"},
    {"lab.cell_stage_s", "s", "lower"},
    {"lab.analysis_stage_s", "s", "lower"},
    {"lab.journal_open_s", "s", "lower"},
    {"lab.journal_bytes", "bytes", "lower"},
    {"lab.journal_hit_frac", "frac", "higher"},
    {"lab.run_experiment.self_s", "s", "lower"},
    {"sim.cell_busy_s", "s", "lower"},
    {"sim.sim_s_per_host_s", "s/s", "higher"},
    {"video.cell_busy_s", "s", "lower"},
    {"video.shard_busy_s", "s", "lower"},
    {"video.sessions", "count", "lower"},
    {"video.sessions_per_host_s", "1/s", "higher"},
    {"core.quality_gate_s", "s", "lower"},
    {"core.table_rows", "count", "lower"},
    {"core.sketch_merge_s", "s", "lower"},
    {"core.sketch_to_table_s", "s", "lower"},
    {"core.est.naive_ab_s", "s", "lower"},
    {"core.est.paired_link_tte_s", "s", "lower"},
    {"core.est.paired_link_spillover_s", "s", "lower"},
    {"core.est.switchback_tte_s", "s", "lower"},
    {"core.est.event_study_tte_s", "s", "lower"},
    {"core.est.gradual_contrast_s", "s", "lower"},
    {"core.est.quantile_ladder_s", "s", "lower"},
    {"core.est.aa_null_s", "s", "lower"},
    {"core.est.guardrail_srm_s", "s", "lower"},
    {"core.estimate_rows", "count", "lower"},
    {"core.null_row_frac", "frac", "lower"},
    {"core.ladder_draws", "count", "lower"},
    {"tracing_overhead_s", "s", "lower"},
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Whether one more spec run, at the median duration so far, still ends
/// inside the loop's time budget (so a run never overshoots --seconds).
bool fits(std::chrono::steady_clock::time_point loop_start, double budget,
          const std::vector<double>& times) {
  return seconds_since(loop_start) + median(times) <= budget;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string defs_json(std::span<const MetricDef> defs) {
  std::string out = "[";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    out += std::string(i ? ", " : "") + "{\"name\": \"" + defs[i].name +
           "\", \"unit\": \"" + defs[i].unit + "\", \"better\": \"" +
           defs[i].better + "\"}";
  }
  return out + "]";
}

int list_metrics() {
  std::string out = "{\"end_to_end\": " + defs_json(kEndToEnd) +
                    ", \"per_layer\": " + defs_json(kPerLayer) +
                    ", \"workloads\": [";
  const std::vector<std::string> names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += std::string(i ? ", " : "") + "\"" + names[i] + "\"";
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

/// The checks every spec run's report must pass, against the first one.
struct Checker {
  explicit Checker(const perfbench::Workload& w) : workload(w) {}

  const perfbench::Workload& workload;
  bool have_reference = false;
  std::uint64_t digest = 0;
  perfbench::WorkCounts counts;

  /// Problems with `report` (empty = correct); the first report checked
  /// becomes the reference the others must reproduce bit for bit.
  std::vector<std::string> check(const xp::lab::ExperimentReport& report) {
    std::vector<std::string> problems =
        perfbench::check_report(workload, report);
    const std::uint64_t d = perfbench::report_digest(report);
    const perfbench::WorkCounts c =
        perfbench::count_work(workload.spec, report);
    if (!have_reference) {
      have_reference = true;
      digest = d;
      counts = c;
    } else {
      if (d != digest) {
        problems.push_back("report digest differs from the first spec run's");
      }
      if (!(c == counts)) problems.push_back("work counts drifted");
    }
    return problems;
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Before anything touches the global runner: it reads XP_THREADS once.
  setenv("XP_THREADS", std::to_string(kThreads).c_str(), 1);

  std::string workload_name;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") return list_metrics();
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage(argv[0]);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) return usage(argv[0]);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload_name.empty() || seed < 0 || seconds <= 0.0 || trace < 0) {
    return usage(argv[0]);
  }

  try {
    const perfbench::Workload workload =
        perfbench::make_workload(workload_name, std::uint64_t(seed));
    const xp::lab::ExperimentSpec& spec = workload.spec;

    const std::size_t threads = xp::util::global_runner().thread_count();
    std::printf("workload %s  seed %lld  runner threads %zu\n",
                workload.name.c_str(), seed, threads);
    if (threads != kThreads) {
      std::fprintf(stderr, "global runner has %zu threads, want %zu\n",
                   threads, kThreads);
      return 1;
    }

    const fs::path dir =
        fs::path(kWorkDir) / (workload.name + "-" + std::to_string(getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    // ---- set-up: what a user pays once per process, repeated -----------
    // A thread pool, the scenario source, the estimators, spec validation
    // and — for reanalysis — simulating the worlds into a fresh journal.
    const std::size_t setups = workload.journaled ? 5 : 200;
    std::vector<double> setup_times;
    std::string journal_dir;
    for (std::size_t k = 0; k < setups; ++k) {
      const std::string candidate = (dir / ("journal" + std::to_string(k))).string();
      const auto start = std::chrono::steady_clock::now();
      {
        xp::util::Runner pool(kThreads);
        const auto source = xp::lab::make_scenario(spec.scenario, spec.tuning);
        for (const std::string& key : spec.estimators) {
          (void)xp::core::make_estimator(key);
        }
        xp::lab::validate(spec);
        if (workload.journaled) {
          xp::lab::ExperimentSpec prefill = spec;
          prefill.estimators.clear();
          const xp::lab::ExperimentReport filled = xp::lab::run_experiment(
              prefill, xp::lab::JournalOptions{candidate});
          if (!filled.manifest().complete()) {
            throw std::runtime_error("journal pre-fill incomplete");
          }
        }
      }
      setup_times.push_back(seconds_since(start));
      if (workload.journaled) {
        if (!journal_dir.empty()) fs::remove_all(journal_dir);
        journal_dir = candidate;
      }
    }

    Checker checker(workload);
    std::size_t attempted = 0, failed = 0;
    const auto record = [&](const std::vector<std::string>& problems) {
      ++attempted;
      if (problems.empty()) return;
      ++failed;
      for (const std::string& p : problems) {
        std::fprintf(stderr, "spec run %zu: %s\n", attempted, p.c_str());
      }
    };

    // ---- closed loop: untraced spec runs through run_experiment --------
    const double loop_seconds = trace ? seconds / 2.0 : seconds;
    std::vector<double> report_times;
    {
      const auto loop_start = std::chrono::steady_clock::now();
      while (report_times.size() < kMinSpecRuns ||
             fits(loop_start, loop_seconds, report_times)) {
        const auto start = std::chrono::steady_clock::now();
        try {
          const xp::lab::ExperimentReport report =
              workload.journaled
                  ? xp::lab::run_experiment(
                        spec, xp::lab::JournalOptions{journal_dir})
                  : xp::lab::run_experiment(spec);
          report_times.push_back(seconds_since(start));
          record(checker.check(report));
        } catch (const std::exception& e) {
          report_times.push_back(seconds_since(start));
          record({std::string("run_experiment threw: ") + e.what()});
        }
      }
    }

    std::uintmax_t journal_bytes = 0;
    if (workload.journaled) {
      journal_bytes = fs::file_size(xp::lab::journal_path(journal_dir));
    }
    const perfbench::WorkCounts& counts = checker.counts;

    // ---- traced loop: the stage-by-stage rebuild with spans ------------
    std::vector<double> traced_times;
    std::map<std::string, std::vector<double>> layer_samples;
    std::vector<std::vector<perfbench::Span>> all_spans;
    if (trace) {
      const auto loop_start = std::chrono::steady_clock::now();
      while (traced_times.size() < kMinSpecRuns ||
             fits(loop_start, seconds - loop_seconds, traced_times)) {
        const auto start = std::chrono::steady_clock::now();
        try {
          perfbench::TracedRun run = perfbench::run_traced(
              spec, journal_dir, int(traced_times.size()) + 1);
          traced_times.push_back(seconds_since(start));
          // The reference is run_experiment's report: a traced report that
          // differs in any bit fails here as a drifted digest.
          record(checker.check(run.report));
          for (const auto& [name, value] :
               perfbench::span_metrics(spec, run, threads)) {
            layer_samples[name].push_back(value);
          }
          all_spans.push_back(std::move(run.spans));
        } catch (const std::exception& e) {
          traced_times.push_back(seconds_since(start));
          record({std::string("traced run threw: ") + e.what()});
        }
      }
    }

    // ---- results --------------------------------------------------------
    std::map<std::string, double> metrics;
    metrics["setup_s"] = median(setup_times);
    metrics["report_s"] = median(report_times);
    metrics["peak_rss_mb"] = peak_rss_mb();
    std::printf("setup_s      %.6f s   (median of %zu set-ups)\n",
                metrics["setup_s"], setup_times.size());
    std::printf("report_s     %.6f s   (median of %zu spec runs; min %.6f, "
                "max %.6f)\n",
                metrics["report_s"], report_times.size(),
                *std::min_element(report_times.begin(), report_times.end()),
                *std::max_element(report_times.begin(), report_times.end()));
    std::printf("peak_rss_mb  %.3f MB  (process peak)\n",
                metrics["peak_rss_mb"]);
    std::printf(
        "work counts  video.sessions=%llu core.table_rows=%llu "
        "core.ladder_draws=%llu core.estimate_rows=%llu "
        "core.null_row_frac=%.17g lab.journal_bytes=%llu\n",
        (unsigned long long)counts.sessions,
        (unsigned long long)counts.table_rows,
        (unsigned long long)counts.ladder_draws,
        (unsigned long long)counts.estimate_rows, counts.null_row_frac(),
        (unsigned long long)journal_bytes);
    std::printf("report digest %016llx\n",
                (unsigned long long)checker.digest);

    std::span<const MetricDef> defs = kEndToEnd;
    if (trace) {
      metrics.clear();
      for (const auto& [name, samples] : layer_samples) {
        metrics[name] = median(samples);
      }
      metrics["lab.journal_bytes"] = double(journal_bytes);
      metrics["video.sessions"] = double(counts.sessions);
      const double video_busy =
          metrics["video.cell_busy_s"] + metrics["video.shard_busy_s"];
      metrics["video.sessions_per_host_s"] =
          video_busy > 0.0 ? double(counts.sessions) / video_busy : 0.0;
      metrics["core.table_rows"] = double(counts.table_rows);
      metrics["core.estimate_rows"] = double(counts.estimate_rows);
      metrics["core.null_row_frac"] = counts.null_row_frac();
      metrics["core.ladder_draws"] = double(counts.ladder_draws);
      metrics["tracing_overhead_s"] =
          median(traced_times) - median(report_times);
      defs = kPerLayer;
      std::printf("traced spec run %.6f s (median of %zu), untraced %.6f s\n",
                  median(traced_times), traced_times.size(),
                  median(report_times));
      for (const MetricDef& d : defs) {
        std::printf("  %-34s %14.6g %s\n", d.name, metrics[d.name], d.unit);
      }
      const fs::path trace_file =
          fs::path(kWorkDir) / ("trace-" + workload.name + "-seed" +
                                std::to_string(seed) + ".json");
      std::ofstream(trace_file) << perfbench::trace_event_json(all_spans);
      std::printf("spans written to %s\n", trace_file.string().c_str());
    }
    fs::remove_all(dir);

    const bool correct = failed == 0 && checker.have_reference;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      json += std::string(i ? ", " : "") + "\"" + defs[i].name +
              "\": {\"value\": " + json_number(metrics[defs[i].name]) +
              ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xp_perfbench: %s\n", e.what());
    return 1;
  }
}
