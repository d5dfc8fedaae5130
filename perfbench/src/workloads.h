// The benchmark's workloads (why each exists: perfbench/README.md) and
// the output checks every spec run must pass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lab/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// What one timed spec run executes (seed = the benchmark's --seed).
  xp::lab::ExperimentSpec spec;
  /// reanalysis: set-up simulates `spec`'s worlds into a fresh cell
  /// journal; timed runs replay them from it.
  bool journaled = false;
  /// The paper's capping direction must show on paired_link/tte.
  bool capping_check = false;
};

/// Throws std::invalid_argument listing the workloads on an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);
std::vector<std::string> workload_names();

/// Deterministic work done by one spec run; must repeat bit-exactly from
/// run to run (a drifting count fails the run).
struct WorkCounts {
  std::uint64_t sessions = 0;        ///< video sessions started
  std::uint64_t table_rows = 0;      ///< observation rows, all cells/columns
  std::uint64_t ladder_draws = 0;    ///< quantile/ladder resample draws
  std::uint64_t estimate_rows = 0;   ///< estimate rows, all estimators
  std::uint64_t estimates = 0;       ///< per-replicate estimates in them
  std::uint64_t null_estimates = 0;  ///< of which null (p = 1 placeholder)

  double null_row_frac() const noexcept {
    return estimates == 0 ? 0.0 : double(null_estimates) / double(estimates);
  }
  bool operator==(const WorkCounts&) const = default;
};

WorkCounts count_work(const xp::lab::ExperimentSpec& spec,
                      const xp::lab::ExperimentReport& report);

/// Output check of one report: complete manifest, rows for every
/// requested (estimator, metric) pair, and — on capping workloads — a
/// significant negative "video bitrate/tte" from paired_link/tte. Returns
/// the problems found (empty = correct).
std::vector<std::string> check_report(const Workload& workload,
                                      const xp::lab::ExperimentReport& report);

}  // namespace perfbench
