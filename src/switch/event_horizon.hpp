// EventHorizon — the min-fold that makes idle-cycle fast-forward universal.
//
// A quiescent switch (no live packets) may jump its clock forward, but only
// as far as the earliest cycle at which any per-cycle consumer would do
// observable work. Each consumer participates through one of two contracts:
//
//   1. Finite horizon — the consumer exposes `next_event(now)`, the
//      earliest cycle >= now at which it must run inside a full step()
//      (fault-plan outage edges and stuck-lane starts, the scrubber's next
//      pass, a pre-rolled bitflip firing cycle, an injector's next creation
//      cycle — pre-rolled too for Bernoulli and OnOff sources, which report
//      the cycle they stopped rolling at when no creation came first). The
//      jump is clamped so that cycle is reached by stepping, never skipped.
//      A consumer whose remaining schedule is empty returns kNoCycle and
//      stops constraining the jump.
//
//   2. Exact retroactive catch-up — the consumer can reconstruct the effect
//      of the skipped cycles from the jump distance alone, so it needs no
//      horizon at all: the conformance monitor coalesces whole idle windows
//      in on_clock_jump(), and the GSF frame bookkeeping realigns
//      frame_start by a modulo catch-up. Catch-up must be *exact*: a jumped
//      run and a stepped run end the skipped range in byte-identical state.
//
// Consumers whose per-cycle work is idempotent on quiescent state (stuck-
// lane reassertion re-forcing the same thermometer cells) satisfy contract
// 2 trivially with a no-op: every cycle on which the forced state could be
// read or mutated is itself horizon-forced to a full step.
//
// The fold is conservative by construction: adding a consumer can only pull
// the horizon closer (shrink jumps), never push it past another consumer's
// constraint — so safety arguments stay local to each consumer.
// docs/PERFORMANCE.md carries the full safety argument.
#pragma once

#include "sim/types.hpp"

namespace ssq::sw {

/// Accumulates the minimum event horizon for one fast-forward jump.
/// Start at the run's end cycle, `limit()` in every consumer's horizon,
/// then jump to `target()`; `due_now(now)` says a consumer needs a full
/// step immediately (jump distance zero).
class EventHorizon {
 public:
  explicit constexpr EventHorizon(Cycle end) noexcept : target_(end) {}

  /// Folds a consumer's next-event cycle in. kNoCycle = unconstrained.
  constexpr void limit(Cycle at) noexcept {
    if (at < target_) target_ = at;
  }

  /// True when the folded horizon is at or before `now`: some consumer has
  /// work this very cycle, so the switch must step, not jump.
  [[nodiscard]] constexpr bool due_now(Cycle now) const noexcept {
    return target_ <= now;
  }

  /// The furthest cycle the clock may jump to.
  [[nodiscard]] constexpr Cycle target() const noexcept { return target_; }

 private:
  Cycle target_;
};

}  // namespace ssq::sw
