// Per-flow packet injection processes.
//
// An Injector owns the stochastic state of one flow's source and answers,
// cycle by cycle, how many packets the source creates and how long each one
// is. Determinism: each injector is seeded by forking the experiment RNG.
// Each stream is private, so rolling it ahead (next_event) draws the same
// values in the same order as rolling it cycle by cycle: the switch visits a
// flow only at its next creation cycle and jumps idle stretches.
#pragma once

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "traffic/flow.hpp"

namespace ssq::traffic {

class Injector {
 public:
  Injector(const FlowSpec& spec, Rng rng);

  /// Number of packets created at cycle `now`. Cycles must be queried in
  /// non-decreasing order. Most processes yield 0 or 1; BurstOnce yields the
  /// whole burst at its start cycle. A stochastic source replays a cycle that
  /// next_event() already rolled without drawing again. (Inline: on the step
  /// hot path.)
  [[nodiscard]] std::uint32_t packets_at(Cycle now) {
    std::uint32_t n = 0;
    switch (spec_.inject) {
      case InjectKind::Bernoulli:
      case InjectKind::OnOff:
        if (now < rolled_until_) {
          if (pending_fire_ != now) return 0;
          pending_fire_ = kNoCycle;
          return 1;
        }
        if (now < spec_.start_cycle) return 0;
        rolled_until_ = now + 1;
        n = roll() ? 1 : 0;
        break;
      case InjectKind::Periodic:
        // next_fire_ starts at start_cycle, so nothing fires before it.
        if (now >= next_fire_) {
          n = 1;
          next_fire_ = now + period_;
        }
        break;
      case InjectKind::BurstOnce:
        if (!burst_done_ && now >= spec_.burst_start) {
          n = spec_.burst_packets;
          burst_done_ = true;
        }
        break;
      case InjectKind::Trace:
        while (trace_pos_ < spec_.trace.size() &&
               spec_.trace[trace_pos_] <= now) {
          ++n;
          ++trace_pos_;
        }
        break;
    }
    return n;
  }

  /// Draws the length (flits) for the next created packet.
  [[nodiscard]] std::uint32_t draw_length() {
    if (spec_.len_min == spec_.len_max) return spec_.len_min;
    const std::uint64_t span = spec_.len_max - spec_.len_min + 1ULL;
    return static_cast<std::uint32_t>(spec_.len_min + rng_.below(span));
  }

  /// Earliest cycle >= `now` at which packets_at() may create a packet or
  /// must draw; every cycle before it creates nothing and may be skipped.
  /// Deterministic kinds (Periodic, BurstOnce, Trace) report their exact
  /// next event and ignore `limit`; an exhausted source reports kNoCycle.
  /// Stochastic kinds (Bernoulli, OnOff) pre-roll their stream, one cycle's
  /// full draws at a time, from the first cycle not yet rolled. They stop
  /// after the first cycle that creates and report it, or stop at `limit`
  /// and report the first unrolled cycle as a re-check point. A created
  /// packet's lengths are drawn after its cycle's trials, so call this only
  /// once every draw_length() of the last created cycle has been made.
  [[nodiscard]] Cycle next_event(Cycle now, Cycle limit);

  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }

 private:
  /// One cycle's Bernoulli/OnOff trials (OnOff: the inject trial while on,
  /// then the state-change trial). True when the cycle creates a packet.
  bool roll() {
    if (spec_.inject == InjectKind::Bernoulli) {
      return rng_.bernoulli(p_inject_);
    }
    if (!on_) {
      if (rng_.bernoulli(p_leave_off_)) on_ = true;
      return false;
    }
    const bool fire = rng_.bernoulli(p_inject_);
    if (rng_.bernoulli(p_leave_on_)) on_ = false;
    return fire;
  }

  FlowSpec spec_;
  Rng rng_;

  // Bernoulli / OnOff: per-cycle packet probability; OnOff also its
  // burst-exit / burst-entry probabilities.
  double p_inject_ = 0.0;
  bool on_ = true;  // OnOff state
  double p_leave_on_ = 0.0;
  double p_leave_off_ = 0.0;
  // Pre-roll state, as in fault::FaultInjector::scan_fire: every cycle
  // < rolled_until_ has had its trials drawn; pending_fire_ is the one
  // rolled cycle that creates and has not been replayed yet (kNoCycle if
  // none). Invariant: pending_fire_ == kNoCycle or
  // pending_fire_ < rolled_until_.
  Cycle rolled_until_ = 0;
  Cycle pending_fire_ = kNoCycle;

  // Periodic.
  Cycle period_ = 0;
  Cycle next_fire_ = 0;

  // Trace.
  std::size_t trace_pos_ = 0;

  bool burst_done_ = false;
};

}  // namespace ssq::traffic
