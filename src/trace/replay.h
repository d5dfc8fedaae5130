// TraceSource: the trace-replay DataSource — the library's third backend,
// fed by recorded session logs instead of a simulator. It closes the loop
// the paper cares about: the same estimator registry that reads live
// simulations runs over *recorded* telemetry, and a simulated world
// exported through the schema can be replayed to calibrate
// simulation-vs-replay agreement (the check the paper performs on Netflix
// production data).
//
// Replicate weeks: recorded data is one realized week, but estimators
// want an across-week stability band. run(allocation, seed) synthesizes a
// replicate by seed-pure block-bootstrap over *hourly cells*: rows are
// grouped by (link, absolute hour), and each link's cell sequence is
// resampled with replacement — preserving within-hour congestion coupling
// (the paper's whole point: sessions sharing a link-hour are not
// independent) while re-drawing the week's hour mix.
//
// Registry contract: stateless after construction, pure in
// (allocation, seed); the registry key (trace/replay or
// trace/self_calibration) is the source's only name. A recorded log
// cannot be re-randomized, so `allocation` is ignored (documented on
// core::DataSource); default_allocation() and intended_treated_fraction()
// report the log's recorded design so the SRM guardrail tests the right
// null.
// SourceOptions::duration_scale is honored by truncating the replayed
// horizon at construction: only sessions arriving before
// duration_scale x recorded-horizon replay (see lab/datasource.h).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/datasource.h"
#include "trace/schema.h"
#include "video/session_record.h"

namespace xp::trace {

struct ReplayConfig {
  /// Truncate the replayed horizon to this fraction of the recorded one
  /// (values >= 1 replay the full log; recorded data cannot be extended).
  double duration_scale = 1.0;
  /// Cooperative work budget in replayed rows (util/budget.h): run()
  /// throws util::BudgetExceeded once a replicate's materialized rows
  /// cross the cap — checked between drawn hourly cells, so blocks stay
  /// whole and the overshoot is at most one cell. 0 (the default) is
  /// unlimited.
  std::uint64_t max_rows = 0;
};

class TraceSource final : public core::DataSource {
 public:
  /// Takes ownership of the log. Rows outside the (scaled) horizon are
  /// dropped here, once; hourly-cell indices are precomputed so run() is
  /// read-only over shared state (the concurrency contract).
  TraceSource(TraceLog log, ReplayConfig config);

  /// The allocation recorded in the log header (falling back to the log's
  /// observed treated fraction when the header does not carry one).
  double default_allocation() const noexcept override;

  /// Block-bootstraps the log's hourly cells per link (seed-pure) into
  /// the standard metric columns (core::metric_table). `allocation` is
  /// ignored — a recorded design cannot be re-randomized.
  core::ObservationTable run(double allocation, std::uint64_t seed,
                             util::Runner&) const override;

  /// The recorded design's intended treated fraction (SRM null), from the
  /// header; falls back to the log's observed fraction.
  double intended_treated_fraction(double allocation) const noexcept override;

  /// Rows that survived horizon truncation (what run() replays).
  std::size_t replayed_rows() const noexcept { return sessions_.size(); }
  const TraceMeta& meta() const noexcept { return meta_; }

 private:
  struct Cell {
    std::uint32_t begin = 0;  ///< [begin, end) into cell_rows_
    std::uint32_t end = 0;
  };

  std::uint64_t max_rows_ = 0;  ///< ReplayConfig::max_rows (0 = unlimited)
  TraceMeta meta_;
  double observed_treated_fraction_ = 0.0;
  std::vector<video::SessionRecord> sessions_;  ///< log order, truncated
  std::vector<std::uint32_t> cell_rows_;  ///< row indices grouped by cell
  std::vector<Cell> cells_;               ///< ordered by (link, hour)
  /// cells_ index ranges per link, ordered by link id: {link, begin, end}.
  std::vector<std::array<std::uint32_t, 3>> link_spans_;
};

}  // namespace xp::trace
