// TraceWriter: dump any simulated world — a fluid-cluster run's
// SessionRecord rows or any backend's ObservationTable (packet-level
// dumbbell runs included) — into the session-log schema, so the same
// estimators that read live simulations can read the exported file
// through TraceSource (trace/replay.h).
//
// Fidelity: the SessionRecord path is lossless in every field the
// estimator stack reads (its records, tabled by core::metric_table,
// reproduce the direct run's metric columns bit-for-bit). The ObservationTable path reconstructs
// rows from the table's aligned metric columns: exposure, arm, and hour
// coordinates are exact; arrival times are quantized to the hour bucket
// and viewing duration is not recoverable (tables do not carry it), so
// quality_integral is written as 0 alongside the exact perceptual-quality
// score.
#pragma once

#include <span>

#include "core/observation_table.h"
#include "trace/schema.h"
#include "video/session_record.h"

namespace xp::trace {

/// Export per-session telemetry rows (e.g. video::ClusterResult::sessions)
/// under the given header metadata.
TraceLog make_log(std::span<const video::SessionRecord> sessions,
                  TraceMeta meta);

/// Export an ObservationTable. Columns with names the schema does not
/// know (non-core metric names) are ignored; rows are aligned across
/// columns per the ObservationTable contract. Throws std::invalid_argument
/// if the columns have mismatched row counts.
TraceLog make_log(const core::ObservationTable& table, TraceMeta meta);

}  // namespace xp::trace
