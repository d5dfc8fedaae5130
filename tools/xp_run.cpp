// xp_run: the operational front door for durable, resumable experiment
// runs (lab/journal.h).
//
//   xp_run --scenario paired_links/experiment --journal /data/run1
//       --allocations 0.5,0.95 --replicates 4 --estimators naive/ab
//       --duration-scale 0.05 --seed 7       (one command line)
//
// Runs the spec, prints the completion manifest (and, with --journal,
// how much of the run was replayed from the journal), and exits 0 only
// when every cell is OK — a partial run (failed / skipped /
// quality-held / budget-exceeded cells) exits 3, so a supervisor loop
// can simply re-invoke until the exit code clears. Kill it at any
// moment: with --journal, completed cells are already on disk and the
// next invocation resumes instead of restarting.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "lab/experiment.h"
#include "lab/journal.h"
#include "lab/registry.h"
#include "util/runner.h"

#include "parse_number.h"

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --scenario <registry key>\n"
      "          [--journal <dir>]       resume from / append to a cell\n"
      "                                  journal (<dir>/cells.xpj, v%u)\n"
      "          [--allocations <p,...>] sweep points (default: the\n"
      "                                  source's own allocation)\n"
      "          [--replicates <n>]      worlds per allocation (default 1)\n"
      "          [--estimators <k,...>]  estimator registry keys\n"
      "          [--seed <n>]            spec seed (default 1)\n"
      "          [--duration-scale <d>]  horizon scale (default 1)\n"
      "          [--budget <n>]          per-cell work budget in the\n"
      "                                  backend's units (events/ticks/\n"
      "                                  rows; default unlimited)\n"
      "          [--on-failure <mode>]   fail_fast | skip | retry:<n>\n"
      "          [--trace-file <path>]   session log for trace/* scenarios\n"
      "       %s --list-scenarios       print scenario registry keys\n"
      "       %s --list-estimators      print estimator registry keys\n"
      "       %s --help                 print this message\n"
      "Exit codes: 0 all cells OK, 3 partial completion, 1 error, 2 usage.\n",
      argv0, xp::lab::kJournalVersion, argv0, argv0, argv0);
}

/// A usage error: the usage on stderr, exit code 2.
int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

/// "0.5,0.95" -> {"0.5", "0.95"}. An empty list or an empty entry
/// ("0.2,,0.8", ",") is a usage error naming the flag and the whole
/// value, never a silently shorter list. Exits 2 on one.
std::vector<std::string> split_csv(const char* argv0, const char* flag,
                                   const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end == start) {
      std::fprintf(stderr, "%s: %s: empty entry in '%s'\n", argv0, flag,
                   csv.c_str());
      std::exit(2);
    }
    out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  xp::lab::ExperimentSpec spec;
  xp::lab::JournalOptions journal;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      // Registry introspection: print the keys and exit 0 — no spec
      // needed (today unknown keys only surface in the error message).
      for (const std::string& name : xp::lab::scenario_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(argv[i], "--list-estimators") == 0) {
      for (const std::string& name : xp::core::estimator_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      spec.scenario = value();
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      journal.directory = value();
    } else if (std::strcmp(argv[i], "--allocations") == 0) {
      for (const std::string& token :
           split_csv(argv[0], "--allocations", value())) {
        spec.allocations.push_back(
            parse_number<double>(argv[0], "--allocations", token));
      }
    } else if (std::strcmp(argv[i], "--replicates") == 0) {
      spec.replicates =
          parse_number<std::size_t>(argv[0], "--replicates", value());
    } else if (std::strcmp(argv[i], "--estimators") == 0) {
      for (std::string& token : split_csv(argv[0], "--estimators", value())) {
        spec.estimators.push_back(std::move(token));
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      spec.seed = parse_number<std::uint64_t>(argv[0], "--seed", value());
    } else if (std::strcmp(argv[i], "--duration-scale") == 0) {
      spec.tuning.duration_scale =
          parse_number<double>(argv[0], "--duration-scale", value());
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      spec.tuning.budget.max_work_units =
          parse_number<std::uint64_t>(argv[0], "--budget", value());
    } else if (std::strcmp(argv[i], "--trace-file") == 0) {
      spec.tuning.trace_path = value();
    } else if (std::strcmp(argv[i], "--on-failure") == 0) {
      const std::string mode = value();
      if (mode == "fail_fast") {
        spec.on_failure = xp::lab::FailurePolicy::fail_fast();
      } else if (mode == "skip") {
        spec.on_failure = xp::lab::FailurePolicy::skip();
      } else if (mode.rfind("retry:", 0) == 0) {
        spec.on_failure = xp::lab::FailurePolicy::retry(
            parse_number<std::uint32_t>(argv[0], "--on-failure retry",
                                        std::string_view(mode).substr(6)));
      } else {
        std::fprintf(stderr, "%s: unknown --on-failure mode '%s'\n", argv[0],
                     mode.c_str());
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }
  if (spec.scenario.empty()) return usage(argv[0]);

  try {
    const xp::lab::ExperimentReport report =
        xp::lab::run_experiment(spec, journal);
    const xp::core::CompletionManifest manifest = report.manifest();

    std::printf("scenario %s: %zu cell(s) (%zu allocation(s) x %zu "
                "replicate(s)), seed %llu\n",
                report.scenario.c_str(), manifest.cells,
                report.allocations.size(), report.replicates,
                static_cast<unsigned long long>(spec.seed));
    std::printf("  ok=%zu failed=%zu skipped=%zu quality_hold=%zu "
                "budget_exceeded=%zu srm_flagged=%zu attempts=%zu\n",
                manifest.ok, manifest.failed, manifest.skipped,
                manifest.quality_hold, manifest.budget_exceeded,
                manifest.srm_flagged, manifest.attempts);
    for (const xp::lab::ExperimentCell& cell : report.cells) {
      if (cell.status.ok()) continue;
      std::printf("  cell (allocation %g, replicate %zu): %s — %s\n",
                  cell.allocation, cell.replicate,
                  xp::core::cell_state_name(cell.status.state),
                  cell.status.error.c_str());
    }
    for (const xp::core::EstimateTable& table : report.estimates) {
      std::printf("  estimator %s: %zu estimate row(s)\n",
                  table.estimator.c_str(), table.rows.size());
    }
    if (!manifest.complete()) {
      std::printf("partial completion: %zu of %zu cell(s) OK%s\n",
                  manifest.ok, manifest.cells,
                  journal.directory.empty()
                      ? ""
                      : " — re-run with the same --journal to resume");
      return 3;
    }
    std::printf("complete\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    if (!journal.directory.empty()) {
      std::fprintf(stderr,
                   "%s: completed cells are journaled in %s — re-run with "
                   "the same --journal to resume\n",
                   argv[0], journal.directory.c_str());
    }
    return 1;
  }
}
