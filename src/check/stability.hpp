// Stability lab — cell-based throughput/delay measurement for the matching
// engines (bench/stability_lab is its one user).
//
// The crossbar model (sw::CrossbarSwitch) carries packets, arbitration
// cycles, finite buffers and QoS state; the scheduling literature's
// stability claims (iSLIP's 100% throughput under uniform traffic, QPS-r's
// r-round delay bounds, SW-QPS's batching gains) are stated for the *cell
// model*: unit-length cells, unbounded VOQs, every port free every slot.
// CellSwitch is that model — the full radix x radix VOQ matrix with
// arrival-stamped FIFOs — so the measured throughput floor and delay curves
// are comparable with the papers, and any engine bug shows up as a missing
// fraction of throughput instead of being masked by buffer backpressure.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "arb/matching.hpp"
#include "sim/types.hpp"

namespace ssq::check {

/// Admissible synthetic traffic patterns (per-output offered load == the
/// per-input load for every pattern, so any load < 1 is admissible).
enum class TrafficPattern : std::uint8_t {
  /// Destination uniform over all outputs.
  Uniform,
  /// 2/3 of cells to output i, 1/3 to output i+1 (mod N) — the classic
  /// skewed "diagonal" load.
  Diagonal,
  /// Output i+k (mod N) with probability 2^-(k+1) (remainder on the last
  /// diagonal) — near-worst-case skew for sampling-based schedulers.
  LogDiagonal,
  /// Half of each input's cells to output i, half uniform.
  Hotspot,
};

[[nodiscard]] const char* to_string(TrafficPattern p) noexcept;
/// Throws ssq::ConfigError naming the offending token.
[[nodiscard]] TrafficPattern parse_pattern(std::string_view name);

struct StabilityConfig {
  std::uint32_t radix = 16;
  arb::MatchKind engine = arb::MatchKind::Islip;
  /// Iteration budget (iSLIP/QPS-r) or window T (SW-QPS).
  std::uint32_t iterations = 3;
  TrafficPattern pattern = TrafficPattern::Uniform;
  /// Offered load: cells per input per slot (admissible below 1.0).
  double load = 0.9;
  /// Slots run before measurement opens (queues reach steady state).
  Cycle warmup = 2000;
  /// Measured slots.
  Cycle cycles = 20000;
  std::uint64_t seed = 1;

  /// Throws ssq::ConfigError on bad values.
  void validate() const;
};

/// One measured (engine, pattern, load) point.
struct StabilityPoint {
  std::string engine;
  std::string pattern;
  double load = 0.0;
  Cycle cycles = 0;
  std::uint64_t arrived = 0;   // cells injected inside the window
  std::uint64_t departed = 0;  // cells served inside the window
  double offered = 0.0;        // arrived / (radix * cycles)
  double throughput = 0.0;     // departed / (radix * cycles)
  double mean_delay = 0.0;     // slots, over in-window departures
  std::uint64_t p99_delay = 0;
  /// Deepest single VOQ seen inside the window (cells) — the instability
  /// indicator: bounded when the engine is stable at this load.
  std::uint64_t max_backlog = 0;
  /// Cells still queued when the window closed.
  std::uint64_t backlog_end = 0;
  /// Mean engine iterations per slot that presented work (convergence).
  double avg_iterations = 0.0;
};

/// Runs one cell-model simulation and measures it. Deterministic in
/// `cfg` (engine and traffic draw from independent seeded streams).
[[nodiscard]] StabilityPoint measure_stability(const StabilityConfig& cfg);

}  // namespace ssq::check
