// Per-flow packet injection processes.
//
// An Injector owns the stochastic state of one flow's source and answers,
// cycle by cycle, how many packets the source creates and how long each one
// is. Determinism: each injector is seeded by forking the experiment RNG.
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
  /// whole burst at its start cycle. (Inline: called once per flow per
  /// simulated cycle — the creation loop is on the step hot path.)
  [[nodiscard]] std::uint32_t packets_at(Cycle now) {
    if (now < spec_.start_cycle && spec_.inject != InjectKind::BurstOnce &&
        spec_.inject != InjectKind::Trace) {
      return 0;
    }
    std::uint32_t n = 0;
    switch (spec_.inject) {
      case InjectKind::Bernoulli:
        n = rng_.bernoulli(p_inject_) ? 1 : 0;
        break;
      case InjectKind::OnOff:
        if (on_) {
          n = rng_.bernoulli(p_inject_) ? 1 : 0;
          if (rng_.bernoulli(p_leave_on_)) on_ = false;
        } else {
          if (rng_.bernoulli(p_leave_off_)) on_ = true;
        }
        break;
      case InjectKind::Periodic:
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

  /// Earliest cycle >= `now` at which this injector may act — create a
  /// packet OR consume RNG state. Idle-cycle fast-forward may skip every
  /// cycle strictly before it without perturbing the injection stream:
  /// packets_at(c) for skipped c would return 0 and draw nothing.
  /// Stochastic kinds (Bernoulli/OnOff) roll their RNG every cycle once
  /// started, so they report max(now, start_cycle); deterministic kinds
  /// report their exact next event; an exhausted source reports kNoCycle.
  [[nodiscard]] Cycle next_active_cycle(Cycle now) const;

  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }

 private:
  FlowSpec spec_;
  Rng rng_;

  // Bernoulli / OnOff: per-cycle packet probability; OnOff also its
  // burst-exit / burst-entry probabilities.
  double p_inject_ = 0.0;
  bool on_ = true;  // OnOff state
  double p_leave_on_ = 0.0;
  double p_leave_off_ = 0.0;

  // Periodic.
  Cycle period_ = 0;
  Cycle next_fire_ = 0;

  // Trace.
  std::size_t trace_pos_ = 0;

  bool burst_done_ = false;
};

}  // namespace ssq::traffic
