// Guaranteed-Latency class usage tracker (paper §3.4).
//
// "The bandwidth usage of the GL class is tracked by a counter similar to
// the auxVC counters of the GB class and increments by a tick count
// proportional to the reserved rate." The GL reservation is shared by every
// input injecting to the output, so there is ONE tracker per output, not one
// per crosspoint.
//
// Policing ("we put safeguards in place to prevent its abuse"): the class is
// eligible for its absolute-priority override only while its virtual clock
// has not run further ahead of real time than an allowance of
// `allowance_packets` Vticks. An over-budget GL class either stalls (waits
// for real time to catch up — the default, which preserves GB guarantees and
// the Eq. (1) bound for compliant senders) or is demoted to best-effort
// priority, selectable via GlPolicing.
#pragma once

#include <cstdint>

#include "sim/contracts.hpp"
#include "sim/types.hpp"

namespace ssq::core {

enum class GlPolicing : std::uint8_t {
  /// Over-budget GL requests wait until the class is compliant again.
  Stall = 0,
  /// Over-budget GL requests compete at best-effort priority.
  Demote = 1,
  /// No policing (trust the senders). Used to demonstrate abuse in tests.
  None = 2,
};

[[nodiscard]] constexpr const char* to_string(GlPolicing p) noexcept {
  switch (p) {
    case GlPolicing::Stall: return "stall";
    case GlPolicing::Demote: return "demote";
    case GlPolicing::None: return "none";
  }
  return "?";
}

class GlTracker {
 public:
  /// `vtick_cycles` = cycles of virtual time per GL packet at the reserved
  /// rate (l / r_GL); 0 disables tracking (no GL reservation configured).
  /// `allowance_packets` = burst depth the policer tolerates before the
  /// class goes over budget.
  GlTracker(std::uint64_t vtick_cycles, std::uint32_t allowance_packets,
            GlPolicing policing)
      : vtick_(vtick_cycles),
        allowance_(allowance_packets),
        policing_(policing) {}

  [[nodiscard]] bool enabled() const noexcept { return vtick_ != 0; }
  [[nodiscard]] GlPolicing policing() const noexcept { return policing_; }
  [[nodiscard]] std::uint64_t vtick() const noexcept { return vtick_; }
  [[nodiscard]] std::uint64_t clock() const noexcept { return vc_; }

  /// True iff the GL class may use its absolute-priority override at `now`.
  [[nodiscard]] bool eligible(Cycle now) const noexcept {
    if (!enabled() || policing_ == GlPolicing::None) return true;
    const std::uint64_t allowance = vtick_ * allowance_;
    return vc_ <= now + allowance;
  }

  /// How far the class is over budget at `now`, in cycles (0 if compliant).
  [[nodiscard]] std::uint64_t overrun(Cycle now) const noexcept {
    if (!enabled()) return 0;
    const std::uint64_t allowance = vtick_ * allowance_;
    const std::uint64_t budget = now + allowance;
    return vc_ > budget ? vc_ - budget : 0;
  }

  /// Commits one GL packet grant at `now`.
  void on_grant(Cycle now) noexcept {
    if (!enabled()) return;
    const std::uint64_t base = vc_ > now ? vc_ : now;
    vc_ = base + vtick_;
  }

  // ---- fault injection / scrubbing (hardware DFT surface) ----

  /// Flips bit `bit` of the virtual-clock register — the fault.
  void fault_flip(std::uint32_t bit) noexcept { vc_ ^= 1ULL << (bit & 63); }

  /// Budget sanity: under Stall policing a clean clock can never run more
  /// than one grant past the eligibility budget, because an ineligible class
  /// is never granted — so vc <= now + vtick*(allowance+1) always holds.
  /// Demote/None legitimately let the clock run arbitrarily far ahead, so no
  /// bound exists and sane() is vacuously true there.
  [[nodiscard]] bool sane(Cycle now) const noexcept {
    if (!enabled() || policing_ != GlPolicing::Stall) return true;
    return vc_ <= now + vtick_ * (allowance_ + 1ULL);
  }

  /// Scrub pass: a clock past the Stall-policing bound is corrupt and is
  /// rewound to `now` (compliant and neutral — neither grants the class a
  /// burst nor stalls it spuriously). Returns true iff a repair happened.
  bool scrub(Cycle now) noexcept {
    if (sane(now)) return false;
    vc_ = now;
    return true;
  }

 private:
  std::uint64_t vtick_;
  std::uint32_t allowance_;
  GlPolicing policing_;
  std::uint64_t vc_ = 0;
};

}  // namespace ssq::core
