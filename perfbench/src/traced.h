// The traced run: the experiment pipeline rebuilt from the library's
// public functions, stage by stage, with a span around every call into a
// layer (nothing inside the library is instrumented).
//
//   lab.run_experiment                       one spec run (root)
//     lab.source_build                       make_scenario + make_estimator
//     lab.journal_open                       CellJournal (journaled specs)
//     lab.cell_stage                         runner fan-out over cells
//       lab.cell                             one (allocation, replicate)
//         lab.journal_find / lab.journal_append
//         sim.simulate | video.simulate      DataSource::run
//         video.shard_stage                  fleet/*: shards on the runner
//           video.shard                      shard_cluster_config +
//                                            run_paired_links(config, sink)
//         core.sketch_merge                  CellAccumulator::merge fold
//         core.sketch_to_table               CellAccumulator::to_table
//         core.quality_gate                  core::assess_quality
//     lab.analysis_stage                     runner fan-out over jobs
//       core.est.<key>                       estimate_metric, one metric
//
// The rebuilt report must be bit-identical to lab::run_experiment's (the
// caller compares digests), so the per-layer numbers describe the same
// program the end-to-end numbers time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lab/experiment.h"
#include "spans.h"

namespace perfbench {

struct TracedRun {
  xp::lab::ExperimentReport report;
  std::vector<Span> spans;
  std::size_t journal_hits = 0;
};

/// Run `spec` stage by stage on the global runner. `journal_dir` empty
/// disables the journal, as JournalOptions does.
TracedRun run_traced(const xp::lab::ExperimentSpec& spec,
                     const std::string& journal_dir, int run_id);

/// Span-derived per-layer timings of one traced run (names as in
/// BENCHMARK.json; counts are added by the caller).
std::map<std::string, double> span_metrics(const xp::lab::ExperimentSpec& spec,
                                           const TracedRun& run,
                                           std::size_t threads);

/// "quantile/ladder" -> "core.est.quantile_ladder" (span and metric stem).
std::string estimator_span_name(const std::string& key);

}  // namespace perfbench
