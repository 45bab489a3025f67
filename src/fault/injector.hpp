// FaultInjector — executes a FaultPlan against a switch's arbitration state.
//
// Attached to a CrossbarSwitch through a nullable pointer exactly like the
// SwitchProbe: detached operation costs one branch per hook site. Attached,
// the injector runs once per cycle before injection/arbitration and
//
//   * flips single bits in auxVC registers, thermometer vectors, LRG
//     priority flops and the GL clock at the plan's bitflip rate,
//   * forces stuck bitline lanes by continuously overriding the affected
//     thermometer cells (the behavioural image of a shorted wire),
//   * tracks input-port and crosspoint outages, which the switch consults
//     when selecting requests.
//
// Every realised fault is appended to log() — the replayable schedule — and
// reported through the probe as a FaultInjected event.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace ssq::core {
class OutputQosArbiter;
}
namespace ssq::obs {
class SwitchProbe;
}

namespace ssq::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Binds the per-output QoS arbiters the injector corrupts (empty in
  /// baseline mode: only outages apply). Called by
  /// CrossbarSwitch::attach_fault_injector.
  void bind(std::vector<core::OutputQosArbiter*> arbiters,
            std::uint32_t radix);

  /// Observability sink for FaultInjected / PortOutage events (nullable).
  void set_probe(obs::SwitchProbe* probe) noexcept { probe_ = probe; }

  /// Runs one cycle of the plan. Called by the switch at the top of step().
  void on_cycle(Cycle now);

  // ---- event-horizon API (idle-cycle fast-forward) ----
  //
  // The injector's observable actions split into two kinds:
  //   * schedule-driven (outage edges, stuck-lane starts): fire at cycles
  //     known from the plan alone — next_event() reports the earliest one,
  //   * RNG-driven (bitflips): decided by one Bernoulli draw per cycle —
  //     scan_fire() pre-rolls those draws over a candidate jump window and
  //     reports the first firing cycle (pre-rolled outcomes are remembered,
  //     so a later stepped on_cycle() consumes the exact same decision).
  // Stuck-lane *reassertion* needs no horizon: corruption is idempotent and
  // every cycle where arbiter state can change is itself a full step, so
  // reasserting only on stepped cycles is observationally identical.

  /// Earliest plan-scheduled cycle >= now at which the injector must run a
  /// full step (outage at/restore edges, stuck-lane starts). kNoCycle when
  /// the remaining plan is silent.
  [[nodiscard]] Cycle next_event(Cycle now) const noexcept;

  /// True when the per-cycle bitflip Bernoulli stream is live (bound arbiters
  /// and a positive rate) — the stream then constrains fast-forward.
  [[nodiscard]] bool has_bitflip_rng() const noexcept {
    return !arbs_.empty() && plan_.bitflip_rate > 0.0;
  }

  /// Pre-rolls the bitflip Bernoulli draws for cycles [now, limit) and
  /// returns the first cycle that fires, or kNoCycle if none do. Cycles
  /// whose draw has already been decided (by stepping or a previous scan)
  /// are never re-rolled; a pending firing cycle is sticky until the
  /// stepped on_cycle() at that cycle consumes it.
  [[nodiscard]] Cycle scan_fire(Cycle now, Cycle limit);

  // ---- outage queries (switch hot path; call only when attached) ----
  [[nodiscard]] bool port_dead(InputId i) const noexcept {
    return (dead_ports_ >> i) & 1ULL;
  }
  [[nodiscard]] bool link_alive(InputId i, OutputId o) const noexcept {
    return ((dead_links_[i] >> o) & 1ULL) == 0;
  }
  /// Inputs whose port or one of whose crosspoints went down or came back
  /// at the last on_cycle() (bit i == input i): the switch re-selects only
  /// their requests.
  [[nodiscard]] std::uint64_t outage_edges() const noexcept {
    return outage_edges_;
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// The realised fault schedule, in injection order.
  [[nodiscard]] const std::vector<InjectedFault>& log() const noexcept {
    return log_;
  }

 private:
  void update_outages(Cycle now);
  void apply_stuck_lanes(Cycle now);
  void inject_bitflip(Cycle now);
  void record(const InjectedFault& f);

  FaultPlan plan_;
  Rng rng_;
  std::vector<core::OutputQosArbiter*> arbs_;
  std::uint32_t radix_ = 0;
  obs::SwitchProbe* probe_ = nullptr;
  std::uint64_t dead_ports_ = 0;
  std::vector<std::uint64_t> dead_links_;  // per input: bitmask of outputs
  std::uint64_t outage_edges_ = 0;
  std::vector<InjectedFault> log_;
  // The per-cycle bitflip trial, and what scan_fire() decided ahead of the
  // clock.
  BernoulliTrial bitflip_;
  RolledStream stream_;
};

}  // namespace ssq::fault
