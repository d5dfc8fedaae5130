#include "video/fleet.h"

#include <cmath>
#include <stdexcept>

#include "stats/rng.h"

namespace xp::video {

namespace {

void shard_check(bool ok, std::size_t shard, const std::string& name,
                 const char* field, const char* requirement) {
  if (!ok) {
    throw std::invalid_argument(
        "FleetConfig: shard " + std::to_string(shard) +
        (name.empty() ? "" : " (" + name + ")") + ": " + field + " " +
        requirement);
  }
}

int reduced_phase(int phase_hours) noexcept {
  int p = phase_hours % 24;
  if (p < 0) p += 24;
  return p;
}

}  // namespace

void validate(const FleetConfig& fleet) {
  if (fleet.shards.empty()) {
    throw std::invalid_argument("FleetConfig: shards must be non-empty");
  }
  for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
    const ShardConfig& shard = fleet.shards[s];
    shard_check(std::isfinite(shard.capacity_scale) &&
                    shard.capacity_scale > 0.0,
                s, shard.name, "capacity_scale", "must be finite positive");
    shard_check(std::isfinite(shard.demand_scale) && shard.demand_scale > 0.0,
                s, shard.name, "demand_scale", "must be finite positive");
    shard_check(std::isfinite(shard.uhd_tilt), s, shard.name, "uhd_tilt",
                "must be finite");
    const DeviceMix& d = fleet.base.devices;
    const double mobile = d.mobile_fraction - shard.uhd_tilt;
    const double uhd = d.uhd_fraction + shard.uhd_tilt;
    shard_check(mobile >= -1e-12 && mobile <= 1.0 && uhd >= -1e-12 &&
                    uhd <= 1.0,
                s, shard.name, "uhd_tilt",
                "must keep device fractions in [0, 1]");
    // The materialized config must itself be a valid cluster.
    try {
      validate(shard_cluster_config(fleet, s));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("FleetConfig: shard " + std::to_string(s) +
                                  ": " + e.what());
    }
  }
}

ClusterConfig shard_cluster_config(const FleetConfig& fleet,
                                   std::size_t shard) {
  if (shard >= fleet.shards.size()) {
    throw std::out_of_range("shard_cluster_config: shard index " +
                            std::to_string(shard) + " >= " +
                            std::to_string(fleet.shards.size()));
  }
  const ShardConfig& delta = fleet.shards[shard];
  ClusterConfig config = fleet.base;
  config.link.capacity_bps *= delta.capacity_scale;
  config.demand.peak_arrivals_per_second *= delta.demand_scale;
  const int phase = reduced_phase(delta.demand_phase_hours);
  if (phase != 0) {
    const std::array<double, 24> base_shape = config.demand.hourly_shape;
    for (int h = 0; h < 24; ++h) {
      config.demand.hourly_shape[static_cast<std::size_t>(h)] =
          base_shape[static_cast<std::size_t>((h - phase + 24) % 24)];
    }
  }
  config.devices.mobile_fraction -= delta.uhd_tilt;
  config.devices.uhd_fraction += delta.uhd_tilt;
  // Tiny tilt round-off would fail the cluster validator's sum check.
  if (config.devices.mobile_fraction < 0.0 &&
      config.devices.mobile_fraction > -1e-12) {
    config.devices.uhd_fraction += config.devices.mobile_fraction;
    config.devices.mobile_fraction = 0.0;
  }
  config.seed = stats::substream_seed(fleet.seed, shard);
  return config;
}

}  // namespace xp::video
