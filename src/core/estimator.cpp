#include "core/estimator.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/string_registry.h"
#include "core/data_quality.h"
#include "core/designs/event_study.h"
#include "core/designs/paired_link.h"
#include "core/designs/switchback.h"
#include "core/quantile_effects.h"
#include "core/session_metrics.h"
#include "stats/distributions.h"
#include "stats/rng.h"
#include "stats/ttest.h"

namespace xp::core {

namespace {

using Rows = std::span<const Observation>;

// ------------------------------------------------------------ row guards ----
//
// Each guard mirrors the precondition of the analysis it fronts; a failed
// guard (or a numerical failure inside the analysis) yields a null
// EffectEstimate instead of aborting the whole report.

bool both_arms(Rows rows, std::size_t min_per_arm) {
  std::size_t treated = 0, control = 0;
  for (const Observation& row : rows) {
    (row.treated ? treated : control) += 1;
    if (treated >= min_per_arm && control >= min_per_arm) return true;
  }
  return false;
}

/// hourly_fe_analysis needs >= 4 (hour, arm) cells, both arms present,
/// every hour of day below 24, and more cells than regression parameters
/// (intercept + arm + the hour-of-day dummies minus the dropped base
/// level).
bool hourly_ok(Rows rows) {
  std::uint32_t hours_of_day = 0;  // bit h: hour of day h seen
  bool treated_seen = false, control_seen = false;
  for (const Observation& row : rows) {
    if (row.hour_of_day >= 24) return false;
    hours_of_day |= std::uint32_t{1} << row.hour_of_day;
    (row.treated ? treated_seen : control_seen) = true;
  }
  if (!treated_seen || !control_seen) return false;
  const std::size_t cells = count_hourly_cells(rows).cells;
  return cells >= 4 &&
         cells > static_cast<std::size_t>(std::popcount(hours_of_day)) + 1;
}

/// account_level_analysis needs >= 2 distinct accounts per arm: each
/// arm's first account, and whether a different one followed it.
bool accounts_ok(Rows rows) {
  std::uint64_t first[2] = {0, 0};
  bool seen[2] = {false, false};
  bool two[2] = {false, false};
  for (const Observation& row : rows) {
    const int arm = row.treated ? 1 : 0;
    if (!seen[arm]) {
      seen[arm] = true;
      first[arm] = row.account;
    } else if (row.account != first[arm]) {
      two[arm] = true;
      if (two[0] && two[1]) return true;
    }
  }
  return false;
}

/// Run `analyze` with the degenerate-input contract: a failed guard, a
/// numerical failure (singular design, too few cells), or a non-finite
/// result (an all-NaN metric column from corrupted telemetry) becomes a
/// null estimate. Guards catch the common cases cheaply; the catch and
/// the finiteness check are the backstop for
/// pathological-but-deterministic inputs.
template <typename Guard, typename Analyze>
EffectEstimate guarded(const Guard& guard, const Analyze& analyze) {
  if (!guard()) return EffectEstimate{};
  try {
    const EffectEstimate estimate = analyze();
    if (!std::isfinite(estimate.estimate)) return EffectEstimate{};
    return estimate;
  } catch (const std::exception&) {
    return EffectEstimate{};
  }
}

// ----------------------------------------------------------- data shapes ----

bool two_groups(Rows rows) {
  bool g0 = false, g1 = false;
  for (const Observation& row : rows) {
    (row.group == 0 ? g0 : g1) = true;
    if (g0 && g1) return true;
  }
  return false;
}

/// The global control condition of the paired design: mean outcome of the
/// control cell on the mostly-control link.
double paired_baseline(Rows rows) {
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

std::uint32_t day_count(Rows rows) {
  std::uint32_t max_day = 0;
  if (rows.empty()) return 0;
  for (const Observation& row : rows) max_day = std::max(max_day, row.day);
  return max_day + 1;
}

/// Shortest round-trip formatting (std::to_chars), not a fixed
/// precision: distinct allocations must yield distinct row keys (with
/// "%.2f", 0.051 and 0.049 would both collide into "@0.05" and trip
/// EstimateTable's duplicate-key rejection).
std::string allocation_label(double allocation) {
  char buffer[32];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), allocation);
  return "@" + std::string(buffer, result.ptr);
}

std::string allocation_suffix(const ExperimentReport& report,
                              std::size_t allocation_index) {
  if (report.allocations.size() <= 1) return "";
  return allocation_label(report.allocations[allocation_index]);
}

/// Rows of one cell's metric column — empty for cells that are not OK
/// (failed, skipped, or quality-held worlds have no usable table), which
/// flows through every row guard as "too thin" and yields a null
/// estimate for that replicate without touching the survivors.
Rows metric_column(const ExperimentReport& report, std::size_t a,
                   std::size_t r, std::string_view metric) {
  const ExperimentCell& cell = report.cell(a, r);
  if (!cell.status.ok()) return {};
  return cell.table.column(metric);
}

/// The first usable replicate's rows of an allocation — the anchor for
/// data-shape detection (paired vs single-group). Anchoring on the first
/// *usable* replicate rather than replicate 0 keeps row labels (and thus
/// the surviving estimates) identical whether or not replicate 0 failed.
Rows first_usable_rows(const ExperimentReport& report, std::size_t a,
                       std::string_view metric) {
  for (std::size_t r = 0; r < report.replicates; ++r) {
    const Rows rows = metric_column(report, a, r, metric);
    if (!rows.empty()) return rows;
  }
  return {};
}

/// True when any replicate world of allocation `a` has a treated row.
/// Checked across every replicate, not just the first: under per-session
/// probabilistic assignment a single replicate can draw zero treated
/// units without the allocation being a baseline step.
bool any_treated(const ExperimentReport& report, std::size_t a,
                 std::string_view metric) {
  for (std::size_t r = 0; r < report.replicates; ++r) {
    for (const Observation& row : metric_column(report, a, r, metric)) {
      if (row.treated) return true;
    }
  }
  return false;
}

/// Build one row by analyzing every replicate world of one allocation
/// independently: analyze(r) -> the estimate from replicate r alone.
template <typename Analyze>
EstimateRow replicate_row(const ExperimentReport& report, std::size_t a,
                          std::string_view metric, std::string label,
                          Estimand estimand, const Analyze& analyze) {
  EstimateRow row;
  row.metric = std::string(metric);
  row.label = std::move(label);
  row.estimand = estimand;
  row.allocation = report.allocations[a];
  row.replicates.reserve(report.replicates);
  for (std::size_t r = 0; r < report.replicates; ++r) {
    row.replicates.push_back(analyze(r));
  }
  return row;
}

// --------------------------------------------------------------- adapters ----

/// Shared front door of every built-in estimator: a metric absent from
/// the report's tables is a caller error and throws (naming the available
/// metric columns, the registry convention), while a report with no OK
/// cell at all degrades to zero rows — there is no data to name rows
/// after, let alone analyze. Subclasses implement rows() and see only
/// metrics that exist.
class BuiltinEstimator : public Estimator {
 public:
  std::vector<EstimateRow> estimate_metric(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const final {
    const ExperimentCell* first_ok = report.first_ok_cell();
    if (first_ok == nullptr) return {};
    // Throws std::invalid_argument listing the available metric columns
    // on a miss — never a silent null row for a misspelled metric.
    (void)first_ok->table.column(metric);
    return rows(report, metric, options);
  }

 private:
  virtual std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const = 0;
};

/// naive/ab — the read every practitioner starts with: account-level
/// Welch within each arm's own link. On paired data, one row per link
/// (tau(link1) is the mostly-treated read, tau(link2) the mostly-control
/// one), both normalized by the global control cell; on single-group
/// data, one pooled "tau" row.
class NaiveAbEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      // A world with nothing treated (a p ~ 0 baseline step) has no A/B
      // contrast to read — skip it instead of emitting null rows.
      if (!any_treated(report, a, metric)) continue;
      const std::string suffix = allocation_suffix(report, a);
      if (two_groups(first_usable_rows(report, a, metric))) {
        // Both links' rows normalize by the same global control cell.
        std::vector<double> baselines(report.replicates);
        for (std::size_t r = 0; r < report.replicates; ++r) {
          baselines[r] = paired_baseline(metric_column(report, a, r, metric));
        }
        for (int link = 0; link < 2; ++link) {
          out.push_back(replicate_row(
              report, a, metric,
              "tau(link" + std::to_string(link + 1) + ")" + suffix,
              Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
                const Rows rows = metric_column(report, a, r, metric);
                RowFilter filter;
                filter.link = link;
                const auto within = select(rows, filter);
                AnalysisOptions analysis = options.analysis;
                analysis.baseline_override = baselines[r];
                return guarded(
                    [&] { return accounts_ok(within); },
                    [&] { return account_level_analysis(within, analysis); });
              }));
        }
      } else {
        out.push_back(replicate_row(
            report, a, metric, "tau" + suffix,
            Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
              const Rows rows = metric_column(report, a, r, metric);
              return guarded(
                  [&] { return accounts_ok(rows); },
                  [&] {
                    return account_level_analysis(rows, options.analysis);
                  });
            }));
      }
    }
    return out;
  }
};

/// paired_link/tte — the cross-link contrast (treated on the mostly-
/// treated link vs control on the mostly-control link). Two rows per
/// metric: "tte" through the conservative hourly FE + Newey-West
/// pipeline (the paper's default) and "tte(account)" through the
/// account-level Welch read — the Figure 13 aggregation comparison.
class PairedLinkTteEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      const std::string suffix = allocation_suffix(report, a);
      EstimateRow hourly_row;
      hourly_row.metric = std::string(metric);
      hourly_row.label = "tte" + suffix;
      hourly_row.estimand = Estimand::kTotalTreatmentEffect;
      hourly_row.allocation = report.allocations[a];
      EstimateRow account_row = hourly_row;
      account_row.label = "tte(account)" + suffix;
      // One contrast + baseline scan per replicate feeds both reads.
      for (std::size_t r = 0; r < report.replicates; ++r) {
        const Rows rows = metric_column(report, a, r, metric);
        const auto contrast = tte_contrast(rows);
        AnalysisOptions analysis = options.analysis;
        analysis.baseline_override = paired_baseline(rows);
        hourly_row.replicates.push_back(guarded(
            [&] { return hourly_ok(contrast); },
            [&] { return hourly_fe_analysis(contrast, analysis); }));
        account_row.replicates.push_back(guarded(
            [&] { return accounts_ok(contrast); },
            [&] { return account_level_analysis(contrast, analysis); }));
      }
      out.push_back(std::move(hourly_row));
      out.push_back(std::move(account_row));
    }
    return out;
  }
};

/// paired_link/spillover — s(p): control units on the mostly-treated
/// link vs control units on the mostly-control link, hourly FE pipeline.
class PairedLinkSpilloverEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      out.push_back(replicate_row(
          report, a, metric, "spillover" + allocation_suffix(report, a),
          Estimand::kSpillover, [&](std::size_t r) {
            const Rows rows = metric_column(report, a, r, metric);
            RowFilter exposed;
            exposed.link = kMostlyTreatedLink;
            exposed.treated = 0;
            RowFilter control;
            control.link = kMostlyControlLink;
            control.treated = 0;
            const auto obs = cross_cell_contrast(rows, exposed, control);
            AnalysisOptions analysis = options.analysis;
            analysis.baseline_override = paired_baseline(rows);
            return guarded([&] { return hourly_ok(obs); },
                           [&] { return hourly_fe_analysis(obs, analysis); });
          }));
    }
    return out;
  }
};

/// switchback/tte — the emulated switchback of Section 5.3: alternating
/// daily intervals (days 1, 3, 5... treated) over however many days the
/// data covers, analyzed with the hourly FE pipeline. Normalized by the
/// paired global control cell when the data is paired.
class SwitchbackTteEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      out.push_back(replicate_row(
          report, a, metric, "tte" + allocation_suffix(report, a),
          Estimand::kTotalTreatmentEffect, [&](std::size_t r) {
            const Rows rows = metric_column(report, a, r, metric);
            const std::uint32_t days = day_count(rows);
            if (days < 2) return EffectEstimate{};
            AnalysisOptions analysis = options.analysis;
            analysis.baseline_override = paired_baseline(rows);
            std::vector<bool> day_treated(days);
            for (std::uint32_t d = 0; d < days; ++d) {
              day_treated[d] = d % 2 == 0;
            }
            const auto obs = switchback_observations(rows, day_treated);
            return guarded(
                [&] { return hourly_ok(obs); },
                [&] { return hourly_fe_analysis(obs, analysis); });
          }));
    }
    return out;
  }
};

/// event_study/tte — the emulated deployment-day event study: control
/// link data before the mid-horizon switch day, treated link data after,
/// hourly FE pipeline. The design the paper shows to be seasonally
/// biased.
class EventStudyTteEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      out.push_back(replicate_row(
          report, a, metric, "tte" + allocation_suffix(report, a),
          Estimand::kTotalTreatmentEffect, [&](std::size_t r) {
            const Rows rows = metric_column(report, a, r, metric);
            const std::uint32_t days = day_count(rows);
            if (days < 2) return EffectEstimate{};
            AnalysisOptions analysis = options.analysis;
            analysis.baseline_override = paired_baseline(rows);
            // "Between Thursday and Friday": the mid-horizon day.
            const auto obs = event_study_observations(rows, (days + 1) / 2);
            return guarded(
                [&] { return hourly_ok(obs); },
                [&] { return hourly_fe_analysis(obs, analysis); });
          }));
    }
    return out;
  }
};

/// gradual/contrast — gradual deployments as measurement instruments
/// (Section 5.1) read off an allocation sweep: a within-step tau at every
/// allocation, the spillover of each step's control arm against the
/// lowest-allocation control world, and the cross-allocation TTE
/// (treated at the highest allocation vs control at the lowest). All
/// Welch on raw outcomes; core::sutva_tests reads the SUTVA battery off
/// these rows.
class GradualContrastEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    if (report.allocations.empty()) return {};
    const std::size_t a_min = static_cast<std::size_t>(
        std::min_element(report.allocations.begin(),
                         report.allocations.end()) -
        report.allocations.begin());
    const std::size_t a_max = static_cast<std::size_t>(
        std::max_element(report.allocations.begin(),
                         report.allocations.end()) -
        report.allocations.begin());

    const auto arm_outcomes = [&](std::size_t a, std::size_t r,
                                  bool treated) {
      std::vector<double> out;
      for (const Observation& row : metric_column(report, a, r, metric)) {
        if (row.treated == treated && std::isfinite(row.outcome)) {
          out.push_back(row.outcome);
        }
      }
      return out;
    };
    const auto welch = [&](const std::vector<double>& lhs,
                           const std::vector<double>& rhs,
                           double baseline) {
      return guarded(
          [&] { return lhs.size() >= 2 && rhs.size() >= 2; },
          [&] {
            const stats::TTestResult t = stats::welch_t_test(
                lhs, rhs, options.analysis.confidence_level);
            EffectEstimate e;
            e.estimate = t.estimate;
            e.std_error = t.std_error;
            e.ci_low = t.ci_low;
            e.ci_high = t.ci_high;
            e.p_value = t.p_value;
            e.significant = t.significant;
            e.baseline = baseline;
            return e;
          });
    };
    // The lowest-allocation control arm feeds mu_C(0) and every contrast
    // below; extract it once per replicate instead of per row.
    std::vector<std::vector<double>> base_control(report.replicates);
    std::vector<double> base_mean(report.replicates, 0.0);
    for (std::size_t r = 0; r < report.replicates; ++r) {
      base_control[r] = arm_outcomes(a_min, r, false);
      double sum = 0.0;
      for (double x : base_control[r]) sum += x;
      if (!base_control[r].empty()) {
        base_mean[r] = sum / static_cast<double>(base_control[r].size());
      }
    }

    // A p ~ 0 lowest step is the pre-deployment baseline world: it feeds
    // mu_C(0) but has no within-step A/B contrast of its own.
    const bool baseline_step = !any_treated(report, a_min, metric);

    std::vector<EstimateRow> out;
    out.push_back(replicate_row(
        report, a_max, metric, "tte", Estimand::kTotalTreatmentEffect,
        [&](std::size_t r) {
          return welch(arm_outcomes(a_max, r, true), base_control[r],
                       base_mean[r]);
        }));
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      if (a == a_min && baseline_step) continue;
      const std::string suffix = allocation_label(report.allocations[a]);
      out.push_back(replicate_row(
          report, a, metric, "tau" + suffix,
          Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
            return welch(arm_outcomes(a, r, true),
                         arm_outcomes(a, r, false), base_mean[r]);
          }));
      if (a == a_min) continue;
      out.push_back(replicate_row(
          report, a, metric, "spillover" + suffix, Estimand::kSpillover,
          [&](std::size_t r) {
            return welch(arm_outcomes(a, r, false), base_control[r],
                         base_mean[r]);
          }));
    }
    return out;
  }
};

/// quantile/ladder — p50/p90/p99 quantile treatment effects with
/// percentile-bootstrap intervals. On paired data the ladder runs over
/// the TTE contrast (the Figure 9 pairing); otherwise over the rows as
/// labeled. Bootstrap streams are derived from EstimatorOptions::seed
/// per (replicate, rung), so the ladder is reproducible at any thread
/// count.
class QuantileLadderEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    static constexpr double kQuantiles[] = {0.5, 0.9, 0.99};
    static constexpr const char* kLabels[] = {"p50", "p90", "p99"};

    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      const std::string suffix = allocation_suffix(report, a);
      const bool paired = two_groups(first_usable_rows(report, a, metric));

      // One ladder per replicate, transposed into one row per rung.
      std::vector<EstimateRow> rung_rows(std::size(kQuantiles));
      for (std::size_t q = 0; q < std::size(kQuantiles); ++q) {
        rung_rows[q].metric = std::string(metric);
        rung_rows[q].label = std::string(kLabels[q]) + suffix;
        rung_rows[q].estimand = paired ? Estimand::kTotalTreatmentEffect
                                       : Estimand::kAverageTreatmentEffect;
        rung_rows[q].allocation = report.allocations[a];
      }
      for (std::size_t r = 0; r < report.replicates; ++r) {
        const Rows rows = metric_column(report, a, r, metric);
        std::vector<Observation> contrast =
            paired ? tte_contrast(rows)
                   : std::vector<Observation>(rows.begin(), rows.end());
        // Quantiles have no aggregation step to hide behind: drop
        // corrupted (non-finite) outcomes here, like the regression
        // pipelines do in aggregate_hourly.
        std::erase_if(contrast, [](const Observation& row) {
          return !std::isfinite(row.outcome);
        });
        QuantileEffectOptions ladder_options;
        ladder_options.confidence_level = options.analysis.confidence_level;
        ladder_options.bootstrap_replicates =
            options.analysis.bootstrap_replicates;
        ladder_options.seed =
            stats::substream_seed(options.seed, a * 8192 + r);
        // quantile_effect_ladder owns the per-rung substream scheme; a
        // failed guard nulls every rung of this replicate.
        std::vector<QuantileEffectRow> ladder(std::size(kQuantiles));
        if (both_arms(contrast, 10)) {
          try {
            ladder =
                quantile_effect_ladder(contrast, kQuantiles, ladder_options);
          } catch (const std::exception&) {
            ladder.assign(std::size(kQuantiles), QuantileEffectRow{});
          }
        }
        for (std::size_t q = 0; q < std::size(kQuantiles); ++q) {
          // Same finiteness backstop as guarded(): an all-NaN column
          // yields NaN quantiles without throwing, which must null out.
          const EffectEstimate& effect = ladder[q].effect;
          rung_rows[q].replicates.push_back(
              std::isfinite(effect.estimate) ? effect : EffectEstimate{});
        }
      }
      for (EstimateRow& row : rung_rows) out.push_back(std::move(row));
    }
    return out;
  }
};

/// aa/null — the A/A calibration read (Section 4.1): on paired data, the
/// link-similarity difference (control rows of link 1 vs control rows of
/// link 2 through the hourly FE pipeline — significant rows are
/// pre-existing imbalances); on single-group data, the as-labeled
/// account-level difference. Either way the expected answer is "null".
class AaNullEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      const std::string suffix = allocation_suffix(report, a);
      if (two_groups(first_usable_rows(report, a, metric))) {
        out.push_back(replicate_row(
            report, a, metric, "link_diff" + suffix,
            Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
              const Rows rows = metric_column(report, a, r, metric);
              RowFilter link0;
              link0.link = 0;
              link0.treated = 0;
              RowFilter link1;
              link1.link = 1;
              link1.treated = 0;
              const auto obs = cross_cell_contrast(rows, link0, link1);
              return guarded(
                  [&] { return hourly_ok(obs); },
                  [&] { return hourly_fe_analysis(obs, options.analysis); });
            }));
      } else {
        out.push_back(replicate_row(
            report, a, metric, "arm_diff" + suffix,
            Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
              const Rows rows = metric_column(report, a, r, metric);
              return guarded(
                  [&] { return accounts_ok(rows); },
                  [&] {
                    return account_level_analysis(rows, options.analysis);
                  });
            }));
      }
    }
    return out;
  }
};

/// guardrail/srm — the sample-ratio-mismatch check as first-class
/// estimate rows, one per allocation: estimate = observed - intended
/// treated fraction, p-value from the 1-df chi-square, significant iff
/// the guardrail tripped. On healthy worlds every row is null-ish
/// (p ~ 1); a significant row means the cell's assignment or telemetry
/// is broken and its other estimates should not be believed. Reads the
/// DataQualityReport the pipeline attached to each cell, recomputing
/// against the raw allocation for hand-built reports that never ran
/// through run_experiment.
class SrmGuardrailEstimator final : public BuiltinEstimator {
 public:
  std::vector<EstimateRow> rows(
      const ExperimentReport& report, std::string_view metric,
      const EstimatorOptions& options) const override {
    std::vector<EstimateRow> out;
    for (std::size_t a = 0; a < report.allocations.size(); ++a) {
      out.push_back(replicate_row(
          report, a, metric, "srm" + allocation_suffix(report, a),
          Estimand::kAverageTreatmentEffect, [&](std::size_t r) {
            const ExperimentCell& cell = report.cell(a, r);
            if (!cell.status.ok()) return EffectEstimate{};
            const DataQualityReport quality =
                cell.quality.computed
                    ? cell.quality
                    : assess_quality(cell.table, cell.allocation);
            if (quality.rows == 0) return EffectEstimate{};
            const double f = quality.intended_treated_fraction;
            const auto n = static_cast<double>(quality.rows);
            EffectEstimate estimate;
            estimate.estimate =
                quality.observed_treated_fraction - f;
            estimate.baseline = f;
            estimate.std_error = std::sqrt(std::max(0.0, f * (1.0 - f)) / n);
            const double z = stats::normal_inv(
                0.5 + options.analysis.confidence_level / 2.0);
            estimate.ci_low = estimate.estimate - z * estimate.std_error;
            estimate.ci_high = estimate.estimate + z * estimate.std_error;
            estimate.p_value = quality.srm_p_value;
            estimate.significant = quality.srm_flag;
            return estimate;
          }));
    }
    return out;
  }
};

// --------------------------------------------------------------- registry ----

void install_builtins(std::map<std::string, EstimatorFactory>& reg) {
  const auto add = [&](const char* name, auto make) {
    reg.emplace(name, [make]() -> std::unique_ptr<Estimator> {
      return make();
    });
  };
  add("naive/ab", [] { return std::make_unique<NaiveAbEstimator>(); });
  add("paired_link/tte",
      [] { return std::make_unique<PairedLinkTteEstimator>(); });
  add("paired_link/spillover",
      [] { return std::make_unique<PairedLinkSpilloverEstimator>(); });
  add("switchback/tte",
      [] { return std::make_unique<SwitchbackTteEstimator>(); });
  add("event_study/tte",
      [] { return std::make_unique<EventStudyTteEstimator>(); });
  add("gradual/contrast",
      [] { return std::make_unique<GradualContrastEstimator>(); });
  add("quantile/ladder",
      [] { return std::make_unique<QuantileLadderEstimator>(); });
  add("aa/null", [] { return std::make_unique<AaNullEstimator>(); });
  add("guardrail/srm",
      [] { return std::make_unique<SrmGuardrailEstimator>(); });
}

util::StringRegistry<EstimatorFactory>& registry() {
  static util::StringRegistry<EstimatorFactory> instance("estimator",
                                                           install_builtins);
  return instance;
}

}  // namespace

std::uint64_t metric_seed(std::uint64_t base,
                          std::size_t metric_index) noexcept {
  return stats::substream_seed(base, metric_index);
}

void register_estimator(std::string name, EstimatorFactory factory) {
  registry().add(std::move(name), std::move(factory));
}

std::unique_ptr<Estimator> make_estimator(std::string_view name) {
  return registry().find(name)();
}

std::vector<std::string> estimator_names() { return registry().names(); }

}  // namespace xp::core
