// Reference-vs-fast-path equivalence for the record-path analysis kernels.
//
// The kernels in core/analysis.cpp, the row guards in core/estimator.cpp
// and the cell counts in core/data_quality.cpp are written for speed: a
// flat cell table instead of a std::map per (hour, arm), a radix sort of
// each arm's rows instead of a std::map per account, running flags
// instead of std::set guards. This test keeps the tree-based forms as
// test-local reference code and asserts the fast paths agree bit for bit
// on a few thousand seeded inputs: duplicate accounts with fractional and
// zero weights (sketch-style rows), NaN and +-inf outcomes, interleaved,
// blocked and one-sided arms, hour indices that are sparse, out of order
// or near UINT64_MAX, and empty input. A kernel that visits accounts,
// cells or rows in another order changes some sum's last bit and fails
// here by name.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/data_quality.h"
#include "core/designs/paired_link.h"
#include "core/estimator.h"
#include "core/experiment_data.h"
#include "stats/rng.h"
#include "stats/ttest.h"

namespace xp::core {
namespace {

using Rows = std::vector<Observation>;

// ------------------------------------------------------ reference forms ----

std::vector<HourlyCell> reference_aggregate_hourly(const Rows& rows) {
  struct Agg {
    double sum = 0.0;
    double weight = 0.0;
    std::size_t n = 0;
    std::uint32_t hod = 0;
  };
  std::map<std::pair<std::uint64_t, bool>, Agg> cells;
  for (const Observation& row : rows) {
    if (!std::isfinite(row.outcome)) continue;
    Agg& cell = cells[{row.hour_index, row.treated}];
    cell.sum += row.weight * row.outcome;
    cell.weight += row.weight;
    cell.n += 1;
    cell.hod = row.hour_of_day;
  }
  std::vector<HourlyCell> out;
  for (const auto& [key, agg] : cells) {
    if (agg.weight <= 0.0) continue;
    HourlyCell cell;
    cell.hour_index = key.first;
    cell.treated = key.second;
    cell.hour_of_day = agg.hod;
    cell.mean_outcome = agg.sum / agg.weight;
    cell.sessions = agg.n;
    cell.weight = agg.weight;
    out.push_back(cell);
  }
  return out;
}

/// Throws std::invalid_argument on too few accounts, as the kernel does.
EffectEstimate reference_account_level_analysis(
    const Rows& rows, const AnalysisOptions& options) {
  std::map<std::uint64_t, std::pair<double, double>> treated_accounts;
  std::map<std::uint64_t, std::pair<double, double>> control_accounts;
  for (const Observation& row : rows) {
    if (!std::isfinite(row.outcome)) continue;
    auto& bucket = row.treated ? treated_accounts : control_accounts;
    auto& [sum, weight] = bucket[row.account];
    sum += row.weight * row.outcome;
    weight += row.weight;
  }
  std::vector<double> treated, control;
  for (const auto& [account, agg] : treated_accounts) {
    if (agg.second > 0.0) treated.push_back(agg.first / agg.second);
  }
  for (const auto& [account, agg] : control_accounts) {
    if (agg.second > 0.0) control.push_back(agg.first / agg.second);
  }
  if (treated.size() < 2 || control.size() < 2) {
    throw std::invalid_argument("too few accounts");
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

bool reference_hourly_ok(const Rows& rows) {
  std::set<std::pair<std::uint64_t, bool>> cells;
  std::set<std::uint32_t> hours_of_day;
  bool treated_seen = false, control_seen = false;
  for (const Observation& row : rows) {
    cells.insert({row.hour_index, row.treated});
    hours_of_day.insert(row.hour_of_day);
    (row.treated ? treated_seen : control_seen) = true;
  }
  return treated_seen && control_seen && cells.size() >= 4 &&
         cells.size() > hours_of_day.size() + 1;
}

bool reference_accounts_ok(const Rows& rows) {
  std::set<std::uint64_t> treated, control;
  for (const Observation& row : rows) {
    (row.treated ? treated : control).insert(row.account);
    if (treated.size() >= 2 && control.size() >= 2) return true;
  }
  return false;
}

/// The paired design's global control cell (link 1, control arm).
double reference_paired_baseline(const Rows& rows) {
  double sum = 0.0;
  double weight = 0.0;
  for (const Observation& row : rows) {
    if (row.group == kMostlyControlLink && !row.treated &&
        std::isfinite(row.outcome)) {
      sum += row.weight * row.outcome;
      weight += row.weight;
    }
  }
  return weight == 0.0 ? 0.0 : sum / weight;
}

/// The estimators' degenerate-input contract around one analysis.
template <typename Analyze>
EffectEstimate reference_guarded(bool guard, const Analyze& analyze) {
  if (!guard) return EffectEstimate{};
  try {
    const EffectEstimate estimate = analyze();
    if (!std::isfinite(estimate.estimate)) return EffectEstimate{};
    return estimate;
  } catch (const std::exception&) {
    return EffectEstimate{};
  }
}

// ------------------------------------------------------------- inputs ----

/// One seeded input. Every shape knob is drawn from the seed, so a few
/// thousand seeds cover every combination many times over.
Rows random_rows(std::uint64_t seed) {
  stats::Rng rng(seed);
  const std::size_t sizes[] = {0, 1, 3, 8, 24, 60, 150, 400};
  const std::size_t n = sizes[rng.uniform_int(std::size(sizes))];
  const std::uint64_t hour_mode = rng.uniform_int(5);
  const std::uint64_t account_mode = rng.uniform_int(4);
  const std::uint64_t arm_mode = rng.uniform_int(5);
  const bool free_hour_of_day = rng.bernoulli(0.25);
  const bool sketch_weights = rng.bernoulli(0.5);
  const double bad_outcomes = rng.bernoulli(0.5) ? 0.08 : 0.0;
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();

  Rows rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    Observation& row = rows[i];
    row.unit = i;
    const std::uint64_t hour = i * 5 / (n + 1);  // 0..4, in row order
    switch (hour_mode) {
      case 0: row.hour_index = hour; break;           // dense, sorted
      case 1: row.hour_index = rng.uniform_int(30); break;  // out of order
      case 2: row.hour_index = rng.next(); break;     // sparse, any bit
      case 3: row.hour_index = top - rng.uniform_int(6); break;
      default: row.hour_index = 1000 + 7 * rng.uniform_int(9); break;
    }
    // A cell takes its last row's hour of day; rows of one cell disagree
    // only in hand-built tables, which is what exposes that order.
    row.hour_of_day = static_cast<std::uint16_t>(
        free_hour_of_day ? rng.uniform_int(24) : row.hour_index % 24);
    switch (account_mode) {
      case 0: row.account = i; break;                 // one row per account
      case 1: row.account = rng.uniform_int(6); break;  // duplicates
      case 2: row.account = rng.next(); break;        // full 64-bit ids
      default: row.account = top - rng.uniform_int(n / 3 + 1); break;
    }
    switch (arm_mode) {
      case 0: row.treated = rng.bernoulli(0.5); break;  // interleaved
      case 1: row.treated = i < n / 2; break;           // blocked
      case 2: row.treated = true; break;                // one-sided
      case 3: row.treated = false; break;
      default: row.treated = rng.bernoulli(0.9); break;
    }
    row.group = static_cast<std::uint8_t>(rng.uniform_int(2));
    row.outcome = rng.lognormal(1.0, 0.8) * 1e3 + rng.normal(0.0, 1.0);
    if (rng.bernoulli(bad_outcomes)) {
      const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
      row.outcome = bad[rng.uniform_int(3)];
    }
    if (sketch_weights) {
      // Bin rows: a fractional session count, sometimes empty.
      row.weight = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.1, 40.0);
    }
  }
  return rows;
}

// ---------------------------------------------------------- comparison ----

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_estimate(const EffectEstimate& fast,
                          const EffectEstimate& reference) {
  EXPECT_EQ(bits(fast.estimate), bits(reference.estimate));
  EXPECT_EQ(bits(fast.std_error), bits(reference.std_error));
  EXPECT_EQ(bits(fast.ci_low), bits(reference.ci_low));
  EXPECT_EQ(bits(fast.ci_high), bits(reference.ci_high));
  EXPECT_EQ(bits(fast.p_value), bits(reference.p_value));
  EXPECT_EQ(fast.significant, reference.significant);
  EXPECT_EQ(bits(fast.baseline), bits(reference.baseline));
}

ExperimentReport one_cell_report(Rows rows) {
  ExperimentReport report;
  report.allocations = {0.5};
  report.replicates = 1;
  report.cells.resize(1);
  report.cells[0].allocation = 0.5;
  report.cells[0].table.add_column("m", std::move(rows));
  return report;
}

const EffectEstimate& only_replicate(const std::vector<EstimateRow>& rows,
                                     const std::string& label) {
  for (const EstimateRow& row : rows) {
    if (row.label == label) return row.replicates.at(0);
  }
  throw std::out_of_range("no row " + label);
}

constexpr std::uint64_t kInputs = 3000;

TEST(AnalysisReference, HourlyCellsMatchTheTreeForm) {
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 0; seed < kInputs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Rows rows = random_rows(seed);
    const std::vector<HourlyCell> fast = aggregate_hourly(rows);
    const std::vector<HourlyCell> reference = reference_aggregate_hourly(rows);
    ASSERT_EQ(fast.size(), reference.size());
    nonempty += !fast.empty();
    for (std::size_t c = 0; c < fast.size(); ++c) {
      EXPECT_EQ(fast[c].hour_index, reference[c].hour_index);
      EXPECT_EQ(fast[c].treated, reference[c].treated);
      EXPECT_EQ(fast[c].hour_of_day, reference[c].hour_of_day);
      EXPECT_EQ(bits(fast[c].mean_outcome), bits(reference[c].mean_outcome));
      EXPECT_EQ(fast[c].sessions, reference[c].sessions);
      EXPECT_EQ(bits(fast[c].weight), bits(reference[c].weight));
    }
  }
  EXPECT_GT(nonempty, kInputs / 2);
}

TEST(AnalysisReference, AccountMeansMatchTheTreeForm) {
  std::size_t analyzed = 0;
  for (std::uint64_t seed = 0; seed < kInputs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Rows rows = random_rows(seed);
    AnalysisOptions options;
    options.baseline_override = seed % 3 == 0 ? 0.0 : 123.25;
    bool reference_threw = false;
    EffectEstimate reference;
    try {
      reference = reference_account_level_analysis(rows, options);
    } catch (const std::invalid_argument&) {
      reference_threw = true;
    }
    if (reference_threw) {
      EXPECT_THROW(account_level_analysis(rows, options),
                   std::invalid_argument);
      continue;
    }
    ++analyzed;
    expect_same_estimate(account_level_analysis(rows, options), reference);
  }
  EXPECT_GT(analyzed, kInputs / 4);
}

TEST(AnalysisReference, QualityCellCountsMatchTheTreeForm) {
  for (std::uint64_t seed = 0; seed < kInputs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Rows rows = random_rows(seed);
    std::set<std::uint64_t> hours;
    std::set<std::pair<std::uint64_t, bool>> cells;
    for (const Observation& row : rows) {
      hours.insert(row.hour_index);
      cells.insert({row.hour_index, row.treated});
    }
    const DataQualityReport quality =
        assess_quality(one_cell_report(rows).cells[0].table, 0.5);
    EXPECT_EQ(quality.hours_observed, hours.size());
    EXPECT_EQ(quality.arm_hour_cells, cells.size());
  }
}

TEST(AnalysisReference, RowGuardsMatchTheTreeFormThroughTheEstimators) {
  // paired_link/tte runs hourly_ok in front of the hourly read and
  // accounts_ok in front of the account read, both on the TTE contrast;
  // aa/null (single-group data) runs accounts_ok on the rows as labeled.
  const auto tte = make_estimator("paired_link/tte");
  const auto aa = make_estimator("aa/null");
  std::size_t hourly_rows = 0, account_rows = 0;
  for (std::uint64_t seed = 0; seed < kInputs; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Rows rows = random_rows(seed);
    const ExperimentReport report = one_cell_report(rows);
    EstimatorOptions options;

    const Rows contrast = tte_contrast(rows);
    AnalysisOptions analysis = options.analysis;
    analysis.baseline_override = reference_paired_baseline(rows);
    const auto paired = tte->estimate_metric(report, "m", options);
    const EffectEstimate hourly = reference_guarded(
        reference_hourly_ok(contrast),
        [&] { return hourly_fe_analysis(contrast, analysis); });
    const EffectEstimate account = reference_guarded(
        reference_accounts_ok(contrast), [&] {
          return reference_account_level_analysis(contrast, analysis);
        });
    expect_same_estimate(only_replicate(paired, "tte"), hourly);
    expect_same_estimate(only_replicate(paired, "tte(account)"), account);
    hourly_rows += hourly.p_value != 1.0;
    account_rows += account.p_value != 1.0;

    Rows single = rows;
    for (Observation& row : single) row.group = 0;
    const auto arm_diff =
        aa->estimate_metric(one_cell_report(single), "m", options);
    expect_same_estimate(
        only_replicate(arm_diff, "arm_diff"),
        reference_guarded(reference_accounts_ok(single), [&] {
          return reference_account_level_analysis(single, options.analysis);
        }));
  }
  // Both guards pass often enough for the comparison to mean something.
  EXPECT_GT(hourly_rows, kInputs / 10);
  EXPECT_GT(account_rows, kInputs / 10);
}

}  // namespace
}  // namespace xp::core
