// xp_trace_export: run any registered scenario once and dump the world
// to the session-log schema (src/trace/), ready for trace/replay.
//
//   xp_trace_export --scenario paired_links/experiment --seed 7
//       --duration-scale 0.1 --out week.xpt
//   XP_TRACE_FILE=week.xpt ./example_...        # or SourceOptions::trace_path
//
// The export goes through the scenario's ObservationTable (the one
// interface every backend shares), so dumbbell lab runs export exactly
// like cluster weeks. Format is chosen by extension: ".csv" writes the
// text codec, anything else (conventionally ".xpt") the binary one.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "lab/experiment.h"
#include "lab/registry.h"
#include "trace/codec.h"
#include "trace/writer.h"

#include "parse_number.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario <registry key> --out <path[.csv|.xpt]>\n"
               "          [--allocation <p>] [--seed <n>] "
               "[--duration-scale <d>]\n"
               "Runs one world of the scenario and writes it in the "
               "session-log schema (v%u).\n",
               argv0, xp::trace::kSchemaVersion);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string out_path;
  std::optional<double> allocation;  // default: the source's own
  const char* allocation_token = nullptr;
  xp::lab::SourceOptions options;
  const char* duration_scale_token = nullptr;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scenario") == 0) {
      scenario = value();
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = value();
    } else if (std::strcmp(argv[i], "--allocation") == 0) {
      allocation_token = value();
      allocation =
          parse_number<double>(argv[0], "--allocation", allocation_token);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = parse_number<std::uint64_t>(argv[0], "--seed", value());
    } else if (std::strcmp(argv[i], "--duration-scale") == 0) {
      duration_scale_token = value();
      options.duration_scale = parse_number<double>(
          argv[0], "--duration-scale", duration_scale_token);
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", argv[0], argv[i]);
      return usage(argv[0]);
    }
  }
  if (scenario.empty() || out_path.empty()) return usage(argv[0]);
  if (allocation &&
      !(std::isfinite(*allocation) && *allocation >= 0.0 &&
        *allocation <= 1.0)) {
    std::fprintf(stderr,
                 "%s: --allocation: must be a finite treatment fraction in "
                 "[0, 1], got '%s'\n",
                 argv[0], allocation_token);
    return 2;
  }
  // --duration-scale is the only SourceOptions field set from a flag.
  try {
    xp::lab::validate(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: --duration-scale: %s, got '%s'\n", argv[0],
                 e.what(), duration_scale_token);
    return 2;
  }

  try {
    const auto source = xp::lab::make_scenario(scenario, options);
    const double p = allocation.value_or(source->default_allocation());

    const auto table = source->run(p, seed);

    xp::trace::TraceMeta meta;
    meta.source = scenario;
    meta.allocation = p;
    meta.intended_treated_fraction = source->intended_treated_fraction(p);
    meta.seed = seed;
    const auto log = xp::trace::make_log(table, std::move(meta));
    xp::trace::write_trace_file(out_path, log);

    std::printf("%s: wrote %zu sessions of %s (allocation %g, seed %llu)\n",
                out_path.c_str(), log.records.size(), scenario.c_str(),
                p, static_cast<unsigned long long>(seed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
