// Bit-level model of the SSVC inhibit-based arbitration (paper §3.1, §4.1).
//
// "To verify the correctness of SSVC, we further modeled the behavior of
// each wire, multiplexer, and sense amp in a C++ program." — this is that
// program. One arbitration:
//
//   1. Precharge: every bitline of the output bus is charged.
//   2. Discharge: every requesting crosspoint drives its discharge vector
//      (Fig. 1(b) cells per GB lane + Fig. 3 GL override + BE completion)
//      onto the bus; discharges wire-OR.
//   3. Sense: every requesting crosspoint's sense amp reads the single wire
//      selected by its auxVC MSBs (or the GL/BE lane); a still-charged wire
//      means "won".
//
// The model checks the single-winner invariant (exactly one sense amp reads
// a charged wire) and returns the winner. reference_decision() computes the
// same decision directly from (class, level, LRG order) — the "true … auxVC
// value comparison" of §4.1 — and the test suite proves the two agree for
// all input combinations of thermometer codes and valid LRG states. In full
// runs the differential checker feeds this model the levels and LRG order
// of its oracle, check::ReferenceOutput, and requires it to elect the
// simulator's winner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arb/lrg.hpp"
#include "circuit/bus_bits.hpp"
#include "circuit/discharge.hpp"
#include "circuit/lane_layout.hpp"
#include "sim/types.hpp"

namespace ssq::circuit {

/// One crosspoint's contribution to an arbitration.
struct CrosspointRequest {
  InputId input = 0;
  RequestKind kind = RequestKind::None;
  /// Thermometer level (auxVC MSBs) — meaningful for Gb requests only.
  std::uint32_t level = 0;
};

/// Outcome of one arbitration, with the wire states exposed for inspection.
/// Reusable: arbitrate_into() clears and refills one of these in place, so a
/// caller that keeps the trace across calls pays no per-arbitration heap
/// allocation once the sensed_* vectors have reached their high-water size.
struct ArbitrationTrace {
  InputId winner = kNoPort;
  BusBits bitlines;           // post-discharge: set == discharged
  std::vector<std::uint32_t> sensed_wire;   // per requester, parallel order
  std::vector<bool> sensed_charged;         // per requester
  explicit ArbitrationTrace(std::uint32_t bus_width) : bitlines(bus_width) {}
};

class CircuitArbiter {
 public:
  explicit CircuitArbiter(const LaneLayout& layout);

  /// Runs one full precharge/discharge/sense arbitration. `lrg` supplies the
  /// replicated per-crosspoint LRG rows. Requests must name distinct inputs;
  /// at least one request must be present. Enforces the single-winner
  /// invariant among the winning class.
  [[nodiscard]] ArbitrationTrace arbitrate(
      std::span<const CrosspointRequest> requests,
      const arb::LrgArbiter& lrg) const;

  /// Same arbitration, writing into a caller-owned trace (which must have
  /// been constructed with this layout's bus_width). The hot differential
  /// checker reuses one trace across every grant check.
  void arbitrate_into(std::span<const CrosspointRequest> requests,
                      const arb::LrgArbiter& lrg,
                      ArbitrationTrace& trace) const;

  [[nodiscard]] const LaneLayout& layout() const noexcept { return layout_; }

  // ---- fault injection: stuck-at bitlines ----
  //
  // A stuck-at-0 wire is permanently discharged: every sense amp on it reads
  // "lost", so requests routed there can never win. A stuck-at-1 wire is
  // permanently charged: every claimant reads "won", the single-winner
  // invariant breaks, and the grant encoder's wired priority resolves the
  // multi-claim to the lowest input index. With no stuck wires the strict
  // invariant is enforced exactly as before.

  /// Marks bitline `wire` stuck-at-0 (clears any stuck-at-1 on it).
  void set_stuck_low(std::uint32_t wire);
  /// Marks bitline `wire` stuck-at-1 (clears any stuck-at-0 on it).
  void set_stuck_high(std::uint32_t wire);
  /// Heals all stuck wires (tests / repair-what-if experiments).
  void clear_stuck();

 private:
  LaneLayout layout_;
  BusBits stuck_low_;
  BusBits stuck_high_;
  bool any_stuck_ = false;
};

/// Golden reference: the same decision computed directly from levels and the
/// LRG total order, with no wires. GL (if any) beats everything and resolves
/// by LRG; else GB by (level, LRG); else BE by LRG.
[[nodiscard]] InputId reference_decision(
    std::span<const CrosspointRequest> requests, const arb::LrgArbiter& lrg,
    const LaneLayout& layout);

}  // namespace ssq::circuit
