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
        n = stream_.step(now, [&] {
          return now >= spec_.start_cycle && inject_(rng_);
        });
        break;
      case InjectKind::OnOff:
        n = stream_.step(now, [&] {
          return now >= spec_.start_cycle && roll_on_off();
        });
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
  /// Deterministic kinds (Periodic, BurstOnce) report their exact
  /// next event and ignore `limit`; an exhausted source reports kNoCycle.
  /// Stochastic kinds (Bernoulli, OnOff) pre-roll their stream, one cycle's
  /// full trials at a time, from the first cycle not yet rolled. They stop
  /// after the first cycle that creates and report it, or stop at `limit`
  /// and report the first unrolled cycle as a re-check point. A created
  /// packet's lengths are drawn after its cycle's trials, so call this only
  /// once every draw_length() of the last created cycle has been made.
  [[nodiscard]] Cycle next_event(Cycle now, Cycle limit);

  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }

 private:
  /// One OnOff cycle's trials: while on, the inject trial and then the
  /// burst-exit trial; while off, the burst-entry trial. True when the cycle
  /// creates a packet.
  bool roll_on_off() {
    if (!on_) {
      on_ = leave_off_(rng_);
      return false;
    }
    const bool fire = inject_(rng_);
    if (leave_on_(rng_)) on_ = false;
    return fire;
  }

  FlowSpec spec_;
  Rng rng_;

  // Bernoulli / OnOff: the per-cycle packet trial; OnOff also its
  // burst-exit / burst-entry trials.
  BernoulliTrial inject_;
  bool on_ = true;  // OnOff state
  BernoulliTrial leave_on_;
  BernoulliTrial leave_off_;
  // The trials decided ahead of the clock by next_event().
  RolledStream stream_;

  // Periodic.
  Cycle period_ = 0;
  Cycle next_fire_ = 0;

  bool burst_done_ = false;
};

}  // namespace ssq::traffic
