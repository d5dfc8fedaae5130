#include "core/analysis.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "stats/ols.h"
#include "stats/ttest.h"

namespace xp::core {

namespace {

/// The distinct (hour_index, arm) cells of some rows, numbered densely in
/// the order they are first seen. A lookup probes an open-addressing
/// table that holds each cell's exact key, so every uint64_t hour_index
/// is its own cell. A table has few cells (one per hour and arm), so the
/// probe table stays in cache and each row costs one probe, where a tree
/// costs a walk and a sort of the rows streams every row through memory
/// again.
class CellIndex {
 public:
  struct Key {
    std::uint64_t hour_index = 0;
    bool treated = false;
  };

  /// The id of (hour_index, treated), adding the cell if it is new.
  std::size_t find_or_add(std::uint64_t hour_index, bool treated) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(hour_index, treated);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == 0) {
        keys_.push_back({hour_index, treated});
        slot = {hour_index, keys_.size(), treated};
        if (2 * keys_.size() > slots_.size()) grow();
        return keys_.size() - 1;
      }
      if (slot.hour_index == hour_index && slot.treated == treated) {
        return slot.id - 1;
      }
    }
  }

  /// Each cell's key, by id.
  const std::vector<Key>& keys() const { return keys_; }

  /// Cell ids in (hour_index, arm) order.
  std::vector<std::size_t> sorted() const {
    std::vector<std::size_t> ids(keys_.size());
    for (std::size_t id = 0; id < ids.size(); ++id) ids[id] = id;
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      const Key& x = keys_[a];
      const Key& y = keys_[b];
      if (x.hour_index != y.hour_index) return x.hour_index < y.hour_index;
      return x.treated < y.treated;
    });
    return ids;
  }

 private:
  struct Slot {
    std::uint64_t hour_index = 0;
    std::size_t id = 0;  ///< cell id + 1; 0 marks an empty slot
    bool treated = false;
  };

  /// Fibonacci hashing: the top bits of hour_index * 2^64/phi spread
  /// consecutive hours evenly; the treated arm takes the mirrored slot.
  std::size_t home(std::uint64_t hour_index, bool treated) const {
    std::uint64_t h = hour_index * 0x9E3779B97F4A7C15ull;
    if (treated) h = ~h;
    return static_cast<std::size_t>(h >> shift_);
  }

  void grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
    --shift_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == 0) continue;
      std::size_t i = home(slot.hour_index, slot.treated);
      while (slots_[i].id != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Key> keys_;
  std::vector<Slot> slots_ = std::vector<Slot>(64);
  int shift_ = 64 - 6;  ///< 64 - log2(slots_.size())
};

/// Stable LSD radix sort by an unsigned 64-bit key: items with equal keys
/// keep their input order, so a scan of the result visits each key's rows
/// in the order they came. Only the bits where the keys differ (max - min)
/// are passed over, eight at a time, so every uint64_t key sorts exactly.
template <typename T, typename KeyOf>
void stable_sort_by_key(std::vector<T>& items, const KeyOf& key_of) {
  if (items.size() < 2) return;
  std::uint64_t lo = key_of(items.front());
  std::uint64_t hi = lo;
  for (const T& item : items) {
    lo = std::min(lo, key_of(item));
    hi = std::max(hi, key_of(item));
  }
  const int bits = std::bit_width(hi - lo);
  std::vector<T> sorted(bits > 0 ? items.size() : 0);
  for (int shift = 0; shift < bits; shift += 8) {
    const auto digit = [&](const T& item) {
      return static_cast<std::size_t>(((key_of(item) - lo) >> shift) & 0xff);
    };
    std::array<std::size_t, 256> next{};
    for (const T& item : items) ++next[digit(item)];
    std::size_t offset = 0;
    for (std::size_t& slot : next) offset += std::exchange(slot, offset);
    for (const T& item : items) sorted[next[digit(item)]++] = item;
    items.swap(sorted);
  }
}

}  // namespace

std::vector<HourlyCell> aggregate_hourly(std::span<const Observation> rows) {
  // Each cell adds its rows in row order; cells come out in (hour_index,
  // arm) order. With unit weights (every record-path table) the weighted
  // arithmetic is bit-identical to the unweighted form: 1.0 * x is exact
  // and the weight total is an exact integer count.
  struct Agg {
    double sum = 0.0;
    double weight = 0.0;
    std::size_t n = 0;
    std::uint32_t hod = 0;
  };
  CellIndex index;
  std::vector<Agg> aggs;  // by cell id
  for (const Observation& row : rows) {
    if (!std::isfinite(row.outcome)) continue;  // corrupted telemetry
    const std::size_t id = index.find_or_add(row.hour_index, row.treated);
    if (id == aggs.size()) aggs.emplace_back();
    Agg& agg = aggs[id];
    agg.sum += row.weight * row.outcome;
    agg.weight += row.weight;
    agg.n += 1;
    agg.hod = row.hour_of_day;
  }
  std::vector<HourlyCell> out;
  out.reserve(aggs.size());
  for (std::size_t id : index.sorted()) {
    const Agg& agg = aggs[id];
    if (agg.weight <= 0.0) continue;
    HourlyCell cell;
    cell.hour_index = index.keys()[id].hour_index;
    cell.treated = index.keys()[id].treated;
    cell.hour_of_day = agg.hod;
    cell.mean_outcome = agg.sum / agg.weight;
    cell.sessions = agg.n;
    cell.weight = agg.weight;
    out.push_back(cell);
  }
  return out;
}

HourlyCellCount count_hourly_cells(std::span<const Observation> rows) {
  CellIndex index;
  for (const Observation& row : rows) {
    index.find_or_add(row.hour_index, row.treated);
  }
  HourlyCellCount count;
  count.cells = index.keys().size();
  const std::vector<std::size_t> ids = index.sorted();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    count.hours += i == 0 || index.keys()[ids[i]].hour_index !=
                                 index.keys()[ids[i - 1]].hour_index;
  }
  return count;
}

EffectEstimate hourly_fe_analysis(std::span<const Observation> rows,
                                  const AnalysisOptions& options) {
  const std::vector<HourlyCell> cells = aggregate_hourly(rows);
  if (cells.size() < 4) {
    throw std::invalid_argument("hourly_fe_analysis: too few hourly cells");
  }

  std::vector<double> z;
  std::vector<double> arm;
  std::vector<std::size_t> hod;
  z.reserve(cells.size());
  arm.reserve(cells.size());
  hod.reserve(cells.size());
  for (const HourlyCell& cell : cells) {
    z.push_back(cell.mean_outcome);
    arm.push_back(cell.treated ? 1.0 : 0.0);
    hod.push_back(cell.hour_of_day);
  }

  // Drop unused fixed-effect levels to keep X'X well-conditioned when the
  // data covers only part of a day.
  std::vector<std::size_t> levels(24, 0);
  for (std::size_t h : hod) {
    if (h >= levels.size()) {
      throw std::invalid_argument(
          "hourly_fe_analysis: hour_of_day must be below 24");
    }
    levels[h] = 1;
  }
  std::vector<std::size_t> compact(24, 0);
  std::size_t next = 0;
  for (std::size_t h = 0; h < 24; ++h) {
    if (levels[h]) compact[h] = next++;
  }
  for (std::size_t& h : hod) h = compact[h];

  stats::DesignBuilder design;
  design.intercept();
  design.column(arm, "treated");
  design.fixed_effects(hod, next, "hour");

  stats::OlsOptions ols_options;
  ols_options.covariance = stats::CovarianceType::kNeweyWest;
  ols_options.newey_west_lag = options.newey_west_lag;
  ols_options.confidence_level = options.confidence_level;
  const stats::OlsFit fit = stats::ols_fit(design.build(), z, ols_options);

  const stats::Coefficient& beta0 = fit.coefficients[1];
  EffectEstimate effect;
  effect.estimate = beta0.estimate;
  effect.std_error = beta0.std_error;
  effect.ci_low = beta0.ci_low;
  effect.ci_high = beta0.ci_high;
  effect.p_value = beta0.p_value;
  effect.significant = beta0.p_value < 1.0 - options.confidence_level;
  effect.baseline = options.baseline_override != 0.0
                        ? options.baseline_override
                        : arm_mean(rows, false);
  return effect;
}

EffectEstimate account_level_analysis(std::span<const Observation> rows,
                                      const AnalysisOptions& options) {
  // Aggregate to account means first (sessions from one account are not
  // independent), then Welch. Each arm's accounts are visited in
  // ascending order, and each account adds its rows in row order.
  struct AccountRow {
    std::uint64_t account;
    double outcome;
    double weight;
  };
  std::vector<AccountRow> arms[2];
  std::size_t treated_rows = 0;
  for (const Observation& row : rows) {
    treated_rows += row.treated && std::isfinite(row.outcome);
  }
  arms[1].reserve(treated_rows);
  arms[0].reserve(rows.size() - treated_rows);
  for (const Observation& row : rows) {
    if (!std::isfinite(row.outcome)) continue;  // corrupted telemetry
    arms[row.treated].push_back({row.account, row.outcome, row.weight});
  }
  std::vector<double> means[2];
  for (int arm = 0; arm < 2; ++arm) {
    std::vector<AccountRow>& order = arms[arm];
    stable_sort_by_key(order, [](const AccountRow& r) { return r.account; });
    for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
      double sum = 0.0;
      double weight = 0.0;
      for (end = begin;
           end < order.size() && order[end].account == order[begin].account;
           ++end) {
        sum += order[end].weight * order[end].outcome;
        weight += order[end].weight;
      }
      if (weight > 0.0) means[arm].push_back(sum / weight);
    }
  }
  const std::vector<double>& treated = means[1];
  const std::vector<double>& control = means[0];
  if (treated.size() < 2 || control.size() < 2) {
    throw std::invalid_argument("account_level_analysis: too few accounts");
  }

  const stats::TTestResult t =
      stats::welch_t_test(treated, control, options.confidence_level);
  EffectEstimate effect;
  effect.estimate = t.estimate;
  effect.std_error = t.std_error;
  effect.ci_low = t.ci_low;
  effect.ci_high = t.ci_high;
  effect.p_value = t.p_value;
  effect.significant = t.significant;
  effect.baseline = options.baseline_override != 0.0
                        ? options.baseline_override
                        : arm_mean(rows, false);
  return effect;
}

double arm_mean(std::span<const Observation> rows, bool treated) {
  double sum = 0.0;
  double weight = 0.0;
  for (const Observation& row : rows) {
    if (row.treated == treated && std::isfinite(row.outcome)) {
      sum += row.weight * row.outcome;
      weight += row.weight;
    }
  }
  return weight == 0.0 ? 0.0 : sum / weight;
}

}  // namespace xp::core
