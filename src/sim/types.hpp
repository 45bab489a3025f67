// Fundamental vocabulary types shared by every subsystem of the Swizzle
// Switch QoS reproduction.
//
// The simulator is cycle-accurate: time is an unsigned 64-bit cycle count.
// Ports are identified by small indices; traffic classes follow the paper's
// three-class model (Best-Effort < Guaranteed-Bandwidth < Guaranteed-Latency,
// in increasing priority).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace ssq {

/// Simulation time in clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "no cycle" / "not yet".
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/// Input-port index of a switch (0 .. radix-1).
using InputId = std::uint32_t;

/// Output-port index of a switch (0 .. radix-1).
using OutputId = std::uint32_t;

/// Sentinel for "no port".
inline constexpr std::uint32_t kNoPort = std::numeric_limits<std::uint32_t>::max();

/// Monotonically increasing identifier assigned to each injected packet.
using PacketId = std::uint64_t;

/// Identifier of a (source, destination, class) flow within a workload.
using FlowId = std::uint32_t;

/// The paper's three traffic classes, ordered by increasing priority.
///
/// * BE — Best-Effort: no reservations, LRG arbitration, lowest priority.
/// * GB — Guaranteed-Bandwidth: Virtual-Clock-regulated reservations.
/// * GL — Guaranteed-Latency: policed highest-priority class with the
///        closed-form waiting-time bound of Eq. (1).
enum class TrafficClass : std::uint8_t {
  BestEffort = 0,
  GuaranteedBandwidth = 1,
  GuaranteedLatency = 2,
};

/// Number of traffic classes (array sizing).
inline constexpr std::size_t kNumClasses = 3;

/// Short stable name for logs and table headers ("BE", "GB", "GL").
constexpr std::string_view to_string(TrafficClass c) noexcept {
  switch (c) {
    case TrafficClass::BestEffort: return "BE";
    case TrafficClass::GuaranteedBandwidth: return "GB";
    case TrafficClass::GuaranteedLatency: return "GL";
  }
  return "??";
}

}  // namespace ssq
