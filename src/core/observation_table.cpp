#include "core/observation_table.h"

#include <utility>

#include "core/named_lookup.h"

namespace xp::core {

void ObservationTable::add_column(std::string metric,
                                  std::vector<Observation> rows) {
  metrics.push_back(std::move(metric));
  columns.push_back(std::move(rows));
}

void ObservationTable::add_aggregate(std::string name, double value) {
  aggregate_names.push_back(std::move(name));
  aggregates.push_back(value);
}

void ObservationTable::add_series(std::string name,
                                  std::vector<double> values) {
  series_names.push_back(std::move(name));
  series.push_back(std::move(values));
}

const std::vector<Observation>& ObservationTable::column(
    std::string_view metric) const {
  return detail::named_lookup("ObservationTable", "metric column", metric,
                              metrics, columns);
}

double ObservationTable::aggregate(std::string_view name) const {
  return detail::named_lookup("ObservationTable", "aggregate", name,
                              aggregate_names, aggregates);
}

}  // namespace xp::core
