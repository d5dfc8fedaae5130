// The common output of every data-generating backend: named columns of
// unit observations (one column per metric, rows aligned across columns),
// named scalar aggregates (e.g. link utilization), and named time series
// (e.g. hourly utilization). Designs and estimators in core/ consume the
// columns directly; the lab/ scenario registry's DataSource interface
// returns one of these per simulated world.
//
// (This is the data half of the spec -> data -> estimate pipeline; the
// estimate half is EstimateTable in core/estimate_table.h.)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/observation.h"

namespace xp::core {

struct ObservationTable {
  std::vector<std::string> metrics;  ///< column names (core metric names)
  std::vector<std::vector<Observation>> columns;

  std::vector<std::string> aggregate_names;
  std::vector<double> aggregates;

  std::vector<std::string> series_names;
  std::vector<std::vector<double>> series;

  void add_column(std::string metric, std::vector<Observation> rows);
  void add_aggregate(std::string name, double value);
  void add_series(std::string name, std::vector<double> values);

  /// Lookup by name; throws std::invalid_argument naming the available
  /// entries on a miss.
  const std::vector<Observation>& column(std::string_view metric) const;
  double aggregate(std::string_view name) const;
};

}  // namespace xp::core
