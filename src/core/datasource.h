// The backend seam of the experiment pipeline: one data-generating
// process behind a tiny virtual interface.
//
// The interface lives in core/ (like ObservationTable, its return type)
// so layers *below* lab/ can implement a backend — the trace-replay layer
// (src/trace/) is exactly that: a DataSource fed by recorded session logs
// instead of a simulator. lab/datasource.h re-exports the name so data
// sources and the registry keep spelling lab::DataSource.
#pragma once

#include <cstdint>

#include "core/observation_table.h"
#include "util/runner.h"

namespace xp::core {

/// One data-generating process. Implementations must be stateless after
/// construction: run() is called concurrently from pipeline threads and
/// its result must be a pure function of (allocation, seed). A source
/// has no name of its own: the registry key it is published under is
/// its only name.
///
/// Threading: run() receives the runner the pipeline is running on. A
/// source may fan its own work out on that runner (the fleet runs its
/// shards there) and must never look a runner up — the thread count a
/// caller asks for is the thread count it gets.
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// The allocation of the canonical experiment (e.g. 0.95 for the
  /// paired-link capping experiment); pipelines use it when a spec does
  /// not sweep allocations explicitly. Non-generative sources (trace
  /// replay) return the allocation recorded in their log.
  virtual double default_allocation() const noexcept = 0;

  /// Simulate (or replay) one world with fraction `allocation` of units
  /// treated. Sources that cannot re-randomize recorded data document
  /// how they interpret `allocation` (trace replay ignores it).
  virtual ObservationTable run(double allocation, std::uint64_t seed,
                               util::Runner& runner) const = 0;

  /// Convenience form on the process-wide runner (util::global_runner()).
  /// Kept for callers outside the pipeline that hold a DataSource pointer.
  ObservationTable run(double allocation, std::uint64_t seed) const {
    return run(allocation, seed, util::global_runner());
  }

  /// The fraction of units the design *intends* to treat when run at
  /// `allocation` — the null hypothesis of the sample-ratio-mismatch
  /// guardrail (core/data_quality.h). Defaults to the allocation itself;
  /// sources whose assignment mechanism is indirect (per-link Bernoulli
  /// routing, integer rounding, a recorded log's realized design)
  /// override it so a healthy world is never flagged.
  virtual double intended_treated_fraction(double allocation) const noexcept {
    return allocation;
  }

  /// Hash of any configuration beyond (scenario key, allocation, seed)
  /// that changes this source's output — e.g. a fleet's per-shard deltas.
  /// The journal mixes a nonzero value into its fingerprint so cached
  /// cells are not replayed across config changes. 0 (the default) means
  /// "the registry key fully identifies the config".
  virtual std::uint64_t config_fingerprint() const noexcept { return 0; }
};

}  // namespace xp::core
