#include "video/cluster.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/budget.h"
#include "video/session_pool.h"

namespace xp::video {

namespace {

void check(bool ok, const char* field, const char* requirement) {
  if (!ok) {
    throw std::invalid_argument(std::string("ClusterConfig: ") + field +
                                " " + requirement);
  }
}

bool is_probability(double p) noexcept { return p >= 0.0 && p <= 1.0; }

}  // namespace

void validate(const ClusterConfig& config) {
  check(config.days > 0.0, "days", "must be positive");
  check(config.tick_seconds > 0.0, "tick_seconds", "must be positive");
  const DeviceMix& d = config.devices;
  check(d.mobile_fraction >= 0.0 && d.hd_fraction >= 0.0 &&
            d.uhd_fraction >= 0.0,
        "devices.{mobile,hd,uhd}_fraction", "must be non-negative");
  check(std::fabs(d.mobile_fraction + d.hd_fraction + d.uhd_fraction -
                  1.0) <= 1e-9,
        "devices.{mobile,hd,uhd}_fraction", "must sum to 1");
  check(d.mobile_ceiling > 0.0 && d.hd_ceiling > 0.0 && d.uhd_ceiling > 0.0,
        "devices.{mobile,hd,uhd}_ceiling", "must be positive");
  check(is_probability(config.treat_probability[0]), "treat_probability[0]",
        "must be in [0, 1]");
  check(is_probability(config.treat_probability[1]), "treat_probability[1]",
        "must be in [0, 1]");
  check(is_probability(config.link0_probability), "link0_probability",
        "must be in [0, 1]");
  check(config.spurious_rebuffer_per_hour[0] >= 0.0 &&
            config.spurious_rebuffer_per_hour[1] >= 0.0,
        "spurious_rebuffer_per_hour", "must be non-negative");
  // The hybrid map divides by the cushion, and the pool's rung thresholds
  // rely on that map being monotone in the buffer: a zero cushion at the
  // reservoir would be 0/0, and a NaN rung index is undefined behaviour.
  check(std::isfinite(config.abr.reservoir_seconds) &&
            config.abr.reservoir_seconds >= 0.0,
        "abr.reservoir_seconds", "must be finite and non-negative");
  check(std::isfinite(config.abr.cushion_seconds) &&
            config.abr.cushion_seconds > 0.0,
        "abr.cushion_seconds", "must be finite and positive");
  check(config.abr.startup_bitrate > 0.0, "abr.startup_bitrate",
        "must be positive");
  validate(config.faults);
}

double intended_treated_fraction(const ClusterConfig& config) noexcept {
  const double p0 = config.link0_probability;
  return p0 * config.treat_probability[0] +
         (1.0 - p0) * config.treat_probability[1];
}

ClusterResult run_paired_links(const ClusterConfig& config) {
  // The record path is a collecting sink over the one simulation core,
  // reserved from demand x horizon (plus Poisson slack); overflow beyond
  // the reserve grows geometrically like any vector.
  validate(config);
  const double expected_sessions =
      DemandModel(config.demand).expected_arrivals(config.days * 86400.0);
  std::vector<SessionRecord> sessions;
  sessions.reserve(static_cast<std::size_t>(expected_sessions * 1.08) + 1024);
  ClusterResult result = run_paired_links(
      config, [&sessions](const SessionRecord& r) { sessions.push_back(r); });
  result.sessions = std::move(sessions);
  return result;
}

ClusterResult run_paired_links(const ClusterConfig& config,
                               const SessionSink& sink) {
  validate(config);

  // Resolve the arm policies once, up front — unknown names and
  // out-of-range parameters throw (with the registered alternatives
  // listed) before any simulation work.
  const TreatmentPolicy control = make_policy(config.control_policy);
  const TreatmentPolicy treatment = make_policy(config.treatment_policy);

  // Arrival stream: block-buffered over the same xoshiro256** sequence as
  // stats::Rng(seed) — bit-identical draws by the BatchedRng contract, but
  // the generator recurrence runs in refill bursts instead of re-entering
  // per arrival field between pool writes.
  stats::BatchedRng rng(config.seed);
  const double horizon = config.days * 86400.0;
  const double dt = config.tick_seconds;

  // Ladder cache: a session's (possibly transformed) ladder is one of
  // six — device class x arm policy — built once per run, so arrivals
  // perform no heap allocation and sessions share six hot read-only
  // ladders.
  const BitrateLadder& base = BitrateLadder::shared_standard();
  const double ceilings[3] = {config.devices.mobile_ceiling,
                              config.devices.hd_ceiling,
                              config.devices.uhd_ceiling};
  const std::array<BitrateLadder, 6> ladders = {
      control.ladder.apply(base, ceilings[0]),
      treatment.ladder.apply(base, ceilings[0]),
      control.ladder.apply(base, ceilings[1]),
      treatment.ladder.apply(base, ceilings[1]),
      control.ladder.apply(base, ceilings[2]),
      treatment.ladder.apply(base, ceilings[2]),
  };

  // Per-pool policy dispatch table: slot 0 = control, slot 1 = treatment
  // (Arrival::policy mirrors Arrival::treated).
  const std::vector<AbrPolicy> arm_policies = {
      control.abr_policy(config.abr), treatment.abr_policy(config.abr)};

  FluidLink links[2] = {FluidLink(config.link), FluidLink(config.link)};
  DemandModel demand(config.demand);
  SessionPool pools[2] = {SessionPool(config.session, arm_policies),
                          SessionPool(config.session, arm_policies)};

  // Spurious (content-driven) stalls: one geometric skip-sampling stream
  // per link (substreams of the run seed, independent of the arrival
  // stream) replaces the old uniform draw per playing session per tick.
  StallSampler stalls[2] = {
      StallSampler(config.spurious_rebuffer_per_hour[0] * dt / 3600.0,
                   stats::substream_seed(config.seed, 1)),
      StallSampler(config.spurious_rebuffer_per_hour[1] * dt / 3600.0,
                   stats::substream_seed(config.seed, 2))};

  ClusterResult result;

  // Per-record emit: apply the telemetry fate (drop / corrupt / keep),
  // then forward to the sink. The fate is a pure per-record hash of
  // (seed, session_id), so applying it at emit time yields the same
  // records, order, and fault tallies as filtering a finished vector.
  const TelemetryFault& telemetry = config.faults.telemetry;
  const bool has_telemetry_faults =
      telemetry.drop_probability > 0.0 || telemetry.corrupt_probability > 0.0;
  const SessionSink emit = [&](const SessionRecord& record) {
    const SessionRecord* out = &record;
    SessionRecord corrupted;
    if (has_telemetry_faults) {
      switch (telemetry_fate(telemetry, config.seed, record.session_id)) {
        case TelemetryFate::kDropped:
          ++result.stats.records_dropped;
          return;
        case TelemetryFate::kCorrupted:
          // Network metrics truncated from the capture; QoE and identity
          // fields survive (client- vs server-side telemetry paths).
          corrupted = record;
          corrupted.avg_throughput_bps =
              std::numeric_limits<double>::quiet_NaN();
          corrupted.min_rtt = std::numeric_limits<double>::quiet_NaN();
          corrupted.mean_rtt = std::numeric_limits<double>::quiet_NaN();
          corrupted.retransmit_fraction =
              std::numeric_limits<double>::quiet_NaN();
          ++result.stats.records_corrupted;
          out = &corrupted;
          break;
        case TelemetryFate::kKept:
          break;
      }
    }
    sink(*out);
  };
  // Concurrency ~ per-link arrival rate x mean viewing duration at peak.
  const std::size_t expected_peak = static_cast<std::size_t>(
      0.75 * config.demand.peak_arrivals_per_second *
      demand.mean_duration()) + 64;
  for (auto& pool : pools) pool.reserve(expected_peak);

  // Hourly diagnostic accumulators.
  const auto total_hours = static_cast<std::size_t>(horizon / 3600.0) + 1;
  for (int l = 0; l < 2; ++l) {
    result.hourly_utilization[l].assign(total_hours, 0.0);
    result.hourly_rtt[l].assign(total_hours, 0.0);
  }
  std::vector<double> hourly_ticks(total_hours, 0.0);

  // Demand/allocation scratch, hoisted and reused across ticks and links:
  // the steady-state tick loop performs zero heap allocations.
  std::vector<double> demands, alloc;
  demands.reserve(expected_peak);
  alloc.reserve(expected_peak);

  const double log_access_median =
      std::log(config.session.access_rate_median);
  std::uint64_t next_session_id = 1;

  // Fault-plan gates, hoisted: the common (empty-plan) case pays one
  // branch per tick and never calls into faults.cpp. The demand
  // multiplier path is always-on because x1.0 is an exact multiply.
  const bool has_link_faults = !config.faults.link_faults.empty();
  const bool has_demand_faults = !config.faults.demand_faults.empty();

  std::uint64_t ticks_run = 0;
  for (double t = 0.0; t < horizon; t += dt) {
    // Budget check at the top of the tick (one predictable compare per
    // tick in the unlimited case, outside every vectorized inner loop):
    // an exhausted budget throws instead of starting tick max_ticks + 1.
    if (config.max_ticks != 0 && ticks_run >= config.max_ticks) {
      util::throw_budget_exceeded("video::run_paired_links", "ticks",
                                  config.max_ticks);
    }
    ++ticks_run;
    // --- Arrivals (shared demand pool, hash-routed to a link) ---
    const double rate_scale =
        has_demand_faults ? demand_multiplier(config.faults, t) : 1.0;
    const std::uint64_t n_arrivals =
        demand.draw_arrivals(t, dt, rng, rate_scale);
    for (std::uint64_t a = 0; a < n_arrivals; ++a) {
      const std::uint8_t link = rng.uniform() < config.link0_probability
                                    ? std::uint8_t{0}
                                    : std::uint8_t{1};
      const bool treated = rng.bernoulli(config.treat_probability[link]);
      const double u = rng.uniform();
      const std::size_t device =
          u < config.devices.mobile_fraction
              ? 0
              : (u < config.devices.mobile_fraction +
                         config.devices.hd_fraction
                     ? 1
                     : 2);

      SessionPool::Arrival arrival;
      arrival.id = next_session_id;
      arrival.account = next_session_id;
      arrival.link = link;
      arrival.treated = treated;
      arrival.policy = treated ? 1 : 0;
      arrival.start_time = t;
      arrival.duration = demand.draw_duration(rng);
      arrival.ladder = &ladders[device * 2 + (treated ? 1 : 0)];
      arrival.patience = rng.uniform(config.session.cancel_patience_min,
                                     config.session.cancel_patience_max);
      arrival.access_rate_bps =
          std::clamp(rng.lognormal(log_access_median,
                                   config.session.access_rate_sigma),
                     config.session.access_rate_min,
                     config.session.access_rate_max);
      pools[link].add(arrival);
      ++next_session_id;
      ++result.stats.sessions_started;
    }

    const auto hour_index = static_cast<std::size_t>(t / 3600.0);

    // --- Per-link tick: four tight passes, each streaming the arrays ---
    for (int l = 0; l < 2; ++l) {
      SessionPool& pool = pools[l];

      // Capacity fault windows (outage / degradation). Only touched when
      // the plan has link faults: the factor stays at its initial 1.0
      // otherwise and the link math is bit-identical to the clean path.
      if (has_link_faults) {
        links[l].set_capacity_factor(capacity_factor(config.faults, l, t));
      }

      // Pass 1: demand gather (also yields the demand totals the
      // allocator seeds from, saving its first sweep of the array).
      SessionPool::DemandTotals totals;
      pool.gather_demand(demands, totals);

      // Pass 2: allocate into the hoisted scratch + queue dynamics. The
      // grant span aliases `demands` on undersubscribed ticks.
      const std::span<const double> grants = links[l].allocate_and_advance(
          demands, totals.desired_load_bps, totals.demand_sum_bps,
          totals.demand_positive, dt, alloc);
      const double rtt = links[l].rtt();
      const double loss = links[l].loss_fraction();

      // Pass 3: advance every session one tick.
      pool.advance_all(dt, grants, rtt, loss, &stalls[l]);

      // Pass 4: retire finished sessions (pops the done bucket).
      pool.retire_finished(emit, result.stats.sessions_completed);

      // Diagnostics.
      result.stats.peak_concurrency[l] =
          std::max(result.stats.peak_concurrency[l],
                   static_cast<double>(pool.size()));
      result.stats.peak_utilization[l] =
          std::max(result.stats.peak_utilization[l],
                   links[l].last_utilization());
      result.stats.max_queueing_delay[l] = std::max(
          result.stats.max_queueing_delay[l], links[l].queueing_delay());
      if (hour_index < total_hours) {
        result.hourly_utilization[l][hour_index] +=
            links[l].last_utilization();
        result.hourly_rtt[l][hour_index] += rtt;
      }
    }
    if (hour_index < total_hours) hourly_ticks[hour_index] += 1.0;
  }

  // Finish hourly averages.
  for (int l = 0; l < 2; ++l) {
    for (std::size_t h = 0; h < total_hours; ++h) {
      if (hourly_ticks[h] > 0.0) {
        result.hourly_utilization[l][h] /= hourly_ticks[h];
        result.hourly_rtt[l][h] /= hourly_ticks[h];
      }
    }
  }

  // Flush still-active sessions as completed-at-horizon records (their
  // partial telemetry is valid; the paper's datasets do the same at the
  // experiment boundary).
  for (int l = 0; l < 2; ++l) {
    pools[l].flush_all(emit);
  }
  return result;
}

}  // namespace xp::video
