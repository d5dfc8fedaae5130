#include "trace/replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/session_metrics.h"
#include "stats/rng.h"
#include "util/budget.h"

namespace xp::trace {

namespace {

/// Sort key grouping rows into hourly cells: link-major, then absolute
/// hour, then original row order (stable, so replay is deterministic in
/// the log alone).
std::uint64_t cell_key(const video::SessionRecord& row) noexcept {
  return (static_cast<std::uint64_t>(row.link) << 40) |
         (static_cast<std::uint64_t>(row.day) * 24 + row.hour);
}

}  // namespace

TraceSource::TraceSource(TraceLog log, ReplayConfig config)
    : max_rows_(config.max_rows),
      meta_(std::move(log.meta)) {
  // Horizon truncation (SourceOptions::duration_scale semantics): only
  // sessions arriving before scale x recorded-horizon replay. A header
  // without a horizon derives it from the last arrival, so scale 1.0
  // always replays the full log.
  double horizon = meta_.horizon_s;
  if (!(horizon > 0.0)) {
    for (const TraceRecord& row : log.records) {
      horizon = std::max(horizon, row.arrival_s);
    }
  }
  const bool truncate =
      std::isfinite(config.duration_scale) && config.duration_scale < 1.0;
  const double cutoff = horizon * std::max(config.duration_scale, 0.0);

  sessions_.reserve(log.records.size());
  std::size_t treated = 0;
  for (const TraceRecord& row : log.records) {
    if (truncate && !(row.arrival_s < cutoff)) continue;
    sessions_.push_back(to_session_record(row));
    treated += sessions_.back().treated ? 1 : 0;
  }
  observed_treated_fraction_ =
      sessions_.empty()
          ? 0.0
          : static_cast<double>(treated) /
                static_cast<double>(sessions_.size());

  // Group row indices into (link, hour) cells: a stable sort of indices
  // by cell key keeps within-cell rows in log order.
  cell_rows_.resize(sessions_.size());
  for (std::uint32_t i = 0; i < cell_rows_.size(); ++i) cell_rows_[i] = i;
  std::stable_sort(cell_rows_.begin(), cell_rows_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return cell_key(sessions_[a]) < cell_key(sessions_[b]);
                   });
  for (std::uint32_t i = 0; i < cell_rows_.size();) {
    const std::uint64_t key = cell_key(sessions_[cell_rows_[i]]);
    Cell cell;
    cell.begin = i;
    while (i < cell_rows_.size() && cell_key(sessions_[cell_rows_[i]]) == key) {
      ++i;
    }
    cell.end = i;
    cells_.push_back(cell);
  }
  for (std::uint32_t c = 0; c < cells_.size();) {
    const std::uint8_t link = sessions_[cell_rows_[cells_[c].begin]].link;
    const std::uint32_t begin = c;
    while (c < cells_.size() &&
           sessions_[cell_rows_[cells_[c].begin]].link == link) {
      ++c;
    }
    link_spans_.push_back({link, begin, c});
  }
}

double TraceSource::default_allocation() const noexcept {
  const double a = meta_.allocation;
  return (a > 0.0 && a <= 1.0) ? a : observed_treated_fraction_;
}

double TraceSource::intended_treated_fraction(
    double /*allocation*/) const noexcept {
  const double f = meta_.intended_treated_fraction;
  return (f > 0.0 && f < 1.0) ? f : observed_treated_fraction_;
}

core::ObservationTable TraceSource::run(double /*allocation*/,
                                        std::uint64_t seed,
                                        util::Runner&) const {
  // Per link, draw as many hourly cells (with replacement) as the log
  // has, keeping each drawn cell's rows together — within-hour congestion
  // coupling survives, the week's hour mix is re-drawn.
  stats::Rng rng(seed);
  std::vector<video::SessionRecord> rows;
  rows.reserve(sessions_.size());
  for (const auto& [link, begin, end] : link_spans_) {
    const std::uint64_t count = end - begin;
    for (std::uint64_t draw = 0; draw < count; ++draw) {
      const Cell& cell = cells_[begin + rng.uniform_int(count)];
      for (std::uint32_t r = cell.begin; r < cell.end; ++r) {
        rows.push_back(sessions_[cell_rows_[r]]);
      }
      // Budget check between drawn cells (hourly blocks stay whole): a
      // replicate that crosses the row cap throws here instead of
      // materializing the rest of the week.
      if (max_rows_ != 0 && rows.size() > max_rows_) {
        util::throw_budget_exceeded("trace replay", "rows", max_rows_);
      }
    }
  }

  core::ObservationTable table = core::metric_table(rows);
  table.add_aggregate("sessions_replayed",
                      static_cast<double>(rows.size()));
  table.add_aggregate("trace_hour_cells", static_cast<double>(cells_.size()));
  return table;
}

}  // namespace xp::trace
