// A fleet of paired-link shards: the multi-region generalization of the
// single `run_paired_links` world.
//
// Each shard is one region/PoP — its own pair of congested peering links,
// its own demand phase (timezone), scale, capacity, and device mix — all
// expressed as small deltas against a shared base ClusterConfig. Shards
// are completely independent worlds: shard i runs at
// `stats::substream_seed(fleet.seed, i)`, so a fleet run is a pure
// function of (FleetConfig) and parallel shard execution is bit-for-bit
// identical at any thread count (the existing per-run determinism
// contract, applied N times).
//
// This header is pure configuration + materialization; the streaming
// executor that folds shard telemetry into hourly cell sketches lives in
// lab/fleet_scenarios.h (it needs util::Runner and core::CellAccumulator,
// which sit above video/ in the layer graph).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "video/cluster.h"

namespace xp::video {

/// Per-shard deltas applied to FleetConfig::base by shard_cluster_config.
struct ShardConfig {
  std::string name;  ///< diagnostic label ("us-east", "shard07", ...)

  /// Multiplies both links' capacity_bps (bigger/smaller PoP).
  double capacity_scale = 1.0;

  /// Multiplies demand.peak_arrivals_per_second (market size).
  double demand_scale = 1.0;

  /// Rotates demand.hourly_shape right by this many hours (timezone
  /// offset): local hour h takes the base curve's hour
  /// (h - phase) mod 24. May be negative; reduced mod 24.
  int demand_phase_hours = 0;

  /// Shifts device share from mobile toward UHD (richer-device market):
  /// mobile_fraction -= tilt, uhd_fraction += tilt. Negative tilts shift
  /// the other way. Resulting fractions must stay in [0, 1].
  double uhd_tilt = 0.0;
};

struct FleetConfig {
  /// Shared world template; per-shard deltas are applied on top. The
  /// base's own seed is ignored — shard i runs at
  /// substream_seed(seed, i).
  ClusterConfig base;
  std::vector<ShardConfig> shards;
  std::uint64_t seed = 42;
};

/// Validate a fleet: at least one shard, finite positive scales, tilts
/// that keep device fractions in [0, 1] — then every materialized shard
/// config must pass the cluster validator. Throws std::invalid_argument
/// naming the shard and field.
void validate(const FleetConfig& fleet);

/// Materialize shard `shard`'s full ClusterConfig: base + deltas, with
/// the shard's substream seed baked in.
ClusterConfig shard_cluster_config(const FleetConfig& fleet,
                                   std::size_t shard);

}  // namespace xp::video
