// Shared scalar types for the packet-level simulator.
//
// Simulated time is a double in seconds. At the rates we simulate
// (<= 100 Gb/s for <= a few hundred simulated seconds) the 2^-52 relative
// precision of doubles gives sub-picosecond resolution, far below a packet
// serialization time, so drift is not a concern.
#pragma once

#include <cstdint>

namespace xp::sim {

/// Simulated time in seconds.
using Time = double;

/// Bits per second.
using Bps = double;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

/// Index of a FIFO lane for constant-delay events (see EventQueue).
using LaneId = std::uint32_t;

/// Flow identifier, unique per TCP connection in a scenario.
using FlowId = std::uint32_t;

constexpr Time kNoTime = -1.0;

/// Serialization delay of `bytes` on a link of `rate` bits/second.
constexpr Time serialization_delay(std::uint64_t bytes, Bps rate) noexcept {
  return static_cast<Time>(bytes) * 8.0 / rate;
}

/// Bandwidth-delay product in bytes for a rate and round-trip time.
constexpr double bdp_bytes(Bps rate, Time rtt) noexcept {
  return rate * rtt / 8.0;
}

}  // namespace xp::sim
