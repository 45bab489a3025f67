// Finite auxVC counter for one crosspoint (paper §3.1).
//
// The counter holds the flow's virtual clock *relative to the current
// real-time epoch* in cycle units: the top `level_bits` form the level
// exposed to arbitration (via the thermometer code), the low `lsb_bits` are
// at real-time-clock granularity. On every packet grant:
//
//     value <- min(max(value, rt) + Vtick, cap)
//
// where `rt` is the epoch-relative real time — the paper's modified step 1
// (auxVC <- max(auxVC, real_time) - real_time) fused with step 2. The
// companion ThermometerCode is kept in lock-step by the same incremental
// updates the hardware performs (shift up on MSB increment, shift down on
// epoch wrap, compress on halve, clear on reset); `level()` recomputed from
// the raw value always equals `code().level()` — an invariant the tests
// exercise.
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "core/thermometer.hpp"
#include "sim/contracts.hpp"

namespace ssq::core {

class AuxVc {
 public:
  /// `vtick_cycles` >= 1: virtual time per granted packet. Pass the value
  /// returned by quantize_vtick so register-width effects are modelled.
  AuxVc(const SsvcParams& params, std::uint64_t vtick_cycles)
      : params_(params),
        vtick_(vtick_cycles),
        cap_(params.policy == CounterPolicy::None ? (1ULL << 62)
                                                  : params.aux_vc_cap()),
        code_(params.gb_levels()) {
    params.validate();
    SSQ_EXPECT(vtick_cycles >= 1);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] std::uint64_t vtick() const noexcept { return vtick_; }
  [[nodiscard]] std::uint64_t cap() const noexcept { return cap_; }

  /// Arbitration level (0 = highest priority), clamped to the top lane.
  [[nodiscard]] std::uint32_t level() const noexcept {
    const std::uint64_t lvl = value_ >> params_.lsb_bits;
    const std::uint32_t top = params_.gb_levels() - 1;
    return lvl < top ? static_cast<std::uint32_t>(lvl) : top;
  }

  [[nodiscard]] const ThermometerCode& code() const noexcept { return code_; }

  /// Level the arbitration actually senses: the (possibly fault-corrupted)
  /// thermometer vector's top lane. Equals level() while the state is clean
  /// — the invariant the scrubber restores after a fault.
  [[nodiscard]] std::uint32_t arb_level() const noexcept {
    return code_.effective_level();
  }

  /// Commits one packet grant at epoch-relative real time `rt`.
  /// Returns true iff the counter saturated: either the register hit its cap
  /// or the thermometer code was pushed to (or past) the top lane — the
  /// hardware's shift-up with an already-all-ones vector. The halve/reset
  /// policies treat this as their global management trigger.
  bool on_grant(std::uint64_t rt) {
    std::uint64_t v = value_ > rt ? value_ : rt;
    bool saturated = false;
    if (v > cap_ - vtick_ && cap_ >= vtick_) {
      // Would overflow the register: saturate.
      v = cap_;
      saturated = true;
    } else {
      v += vtick_;
      if (v >= cap_) {
        v = cap_;
        saturated = true;
      }
    }
    value_ = v;
    parity_ = value_parity();
    code_.set_level(level());
    // Thermometer shift-up overflow also counts as saturation — except for
    // the None policy, whose (unbounded) counter simply clamps its level.
    if (params_.policy != CounterPolicy::None &&
        code_.level() == code_.width() - 1) {
      saturated = true;
    }
    return saturated;
  }

  /// `k` >= 1 real-time epoch wraps at once: each drops the MSB value by one
  /// (value -= 2^lsb_bits, floored at 0) and shifts the thermometer down one
  /// lane, so k of them subtract k MSBs and shift k lanes in one step.
  void epoch_wrap(std::uint64_t k = 1) noexcept {
    SSQ_EXPECT(k >= 1);
    // The incremental-update invariant only holds from a clean state: an
    // injected upset legitimately breaks it until the scrubber repairs it.
    const bool was_clean = !corrupted();
    value_ = (value_ >> params_.lsb_bits) >= k
                 ? value_ - (k << params_.lsb_bits)
                 : 0;
    parity_ = value_parity();
    code_.shift_down(k);
    SSQ_ENSURE(!was_clean || code_.level() == level());
  }

  /// A zero register and thermometer with no outstanding corruption: an
  /// epoch wrap leaves such a counter exactly as it is.
  [[nodiscard]] bool clean_zero() const noexcept {
    return value_ == 0 && code_.level() == 0 && !corrupted();
  }

  /// Halve policy: register shifted down one position; thermometer top half
  /// copied to bottom half (level halves).
  void halve() noexcept {
    const bool was_clean = !corrupted();
    value_ >>= 1;
    parity_ = value_parity();
    code_.halve();
    SSQ_ENSURE(!was_clean || code_.level() == level());
  }

  /// Reset policy: register and thermometer cleared.
  void reset() noexcept {
    value_ = 0;
    parity_ = false;
    code_.reset();
  }

  void set_vtick(std::uint64_t vtick_cycles) {
    SSQ_EXPECT(vtick_cycles >= 1);
    vtick_ = vtick_cycles;
  }

  // ---- fault injection / scrubbing (hardware DFT surface) ----
  //
  // The register is parity-protected the way a scrub-capable SRAM macro
  // would be: every legitimate write refreshes the parity bit, a particle
  // strike does not. The scrubber exploits two invariants — stored parity
  // matches the register, and the thermometer vector is the encoding of the
  // register's MSBs — to detect any single-bit upset in either structure.

  /// Width of the protected register in bits (level_bits + lsb_bits).
  [[nodiscard]] std::uint32_t register_bits() const noexcept {
    return params_.level_bits + params_.lsb_bits;
  }

  /// Flips register bit `bit` without refreshing parity — the fault.
  void fault_flip_value(std::uint32_t bit) noexcept {
    if (bit < register_bits()) value_ ^= 1ULL << bit;
  }

  /// Flips thermometer-vector cell `bit` — the fault.
  void fault_flip_code(std::uint32_t bit) noexcept { code_.fault_flip(bit); }

  /// What one scrub pass found (and did) for this crosspoint.
  enum class ScrubOutcome : std::uint8_t {
    Clean = 0,
    /// Thermometer vector disagreed with the register; rewritten from the
    /// register MSBs — an exact repair.
    CodeRepaired,
    /// Register parity mismatch: the value itself is untrustworthy, so it is
    /// re-synchronised to the epoch-relative real time `rt` (a neutral
    /// virtual clock neither ahead nor behind) and the thermometer rewritten.
    ValueReset,
  };

  /// Checks both invariants and repairs in place. `rt` is the arbiter's
  /// current epoch-relative real time, used as the neutral reset value.
  ScrubOutcome scrub(std::uint64_t rt) noexcept {
    const bool parity_ok = parity_ == value_parity();
    const bool code_ok = !code_.corrupted() && code_.level() == level();
    if (parity_ok && code_ok) return ScrubOutcome::Clean;
    if (!parity_ok) {
      value_ = rt < cap_ ? rt : cap_;
      parity_ = value_parity();
      code_.clear_corruption();
      code_.set_level(level());
      return ScrubOutcome::ValueReset;
    }
    code_.clear_corruption();
    code_.set_level(level());
    return ScrubOutcome::CodeRepaired;
  }

  /// True iff a scrub pass at this instant would find corruption.
  [[nodiscard]] bool corrupted() const noexcept {
    return parity_ != value_parity() || code_.corrupted() ||
           code_.level() != level();
  }

 private:
  [[nodiscard]] bool value_parity() const noexcept {
    return __builtin_parityll(value_) != 0;
  }

  SsvcParams params_;
  std::uint64_t vtick_;
  std::uint64_t cap_;
  std::uint64_t value_ = 0;
  bool parity_ = false;  // stored parity bit, refreshed on legitimate writes
  ThermometerCode code_;
};

}  // namespace ssq::core
