#include "digest.h"

#include <bit>

namespace perfbench {

void Fnv1a64::bytes(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void Fnv1a64::u64(std::uint64_t value) noexcept {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(value >> (8 * i));
  bytes(le, sizeof(le));
}

void Fnv1a64::f64(double value) noexcept {
  u64(std::bit_cast<std::uint64_t>(value));
}

void Fnv1a64::str(std::string_view value) noexcept {
  u64(value.size());
  bytes(value.data(), value.size());
}

std::uint64_t report_digest(const xp::core::ExperimentReport& report) {
  Fnv1a64 h;
  h.str(report.scenario);
  h.u64(report.allocations.size());
  for (double allocation : report.allocations) h.f64(allocation);
  h.u64(report.replicates);

  h.u64(report.cells.size());
  for (const xp::core::ExperimentCell& cell : report.cells) {
    h.f64(cell.allocation);
    h.u64(cell.replicate);
    h.u64(cell.seed);
    h.u64(static_cast<std::uint64_t>(cell.status.state));
    h.u64(cell.status.attempts);
    const xp::core::ObservationTable& table = cell.table;
    h.u64(table.metrics.size());
    for (std::size_t m = 0; m < table.metrics.size(); ++m) {
      h.str(table.metrics[m]);
      h.u64(table.columns[m].size());
      for (const xp::core::Observation& row : table.columns[m]) {
        h.u64(row.unit);
        h.u64(row.account);
        h.u64(row.treated ? 1 : 0);
        h.f64(row.outcome);
        h.u64(row.hour_of_day);
        h.u64(row.hour_index);
        h.u64(row.day);
        h.u64(row.group);
        h.f64(row.weight);
      }
    }
    h.u64(table.aggregates.size());
    for (std::size_t a = 0; a < table.aggregates.size(); ++a) {
      h.str(table.aggregate_names[a]);
      h.f64(table.aggregates[a]);
    }
    h.u64(table.series.size());
    for (std::size_t s = 0; s < table.series.size(); ++s) {
      h.str(table.series_names[s]);
      h.u64(table.series[s].size());
      for (double v : table.series[s]) h.f64(v);
    }
  }

  h.u64(report.estimates.size());
  for (const xp::core::EstimateTable& table : report.estimates) {
    h.str(table.estimator);
    h.u64(table.rows.size());
    for (const xp::core::EstimateRow& row : table.rows) {
      h.str(row.metric);
      h.str(row.label);
      h.u64(static_cast<std::uint64_t>(row.estimand));
      h.f64(row.allocation);
      h.u64(row.replicates.size());
      for (const xp::core::EffectEstimate& e : row.replicates) {
        h.f64(e.estimate);
        h.f64(e.std_error);
        h.f64(e.ci_low);
        h.f64(e.ci_high);
        h.f64(e.p_value);
        h.u64(e.significant ? 1 : 0);
        h.f64(e.baseline);
      }
    }
  }
  return h.value();
}

}  // namespace perfbench
