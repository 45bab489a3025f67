// SSVC configuration parameters (paper §3.1).
//
// The hardware splits each crosspoint's auxVC counter into `level_bits` most
// significant bits — the part compared during arbitration, via the
// thermometer-code/lane mapping — and `lsb_bits` low bits at real-time-clock
// (cycle) granularity. Fig. 1 uses a 12-bit counter with 3 MSBs; Table 1
// budgets "auxVC (3+8 bits)"; Fig. 4 uses "4 significant bits". All are
// reachable through this struct.
//
// `vtick_bits` models the finite Vtick register (8 bits in Table 1);
// `vtick_shift` is a power-of-two pre-scaler that trades Vtick granularity
// for range (a 1 % reservation of an 8-flit-packet flow needs Vtick = 800
// cycles, which does not fit in 8 bits unscaled). The quantisation error this
// introduces is analysed in ssq::qosmath.
#pragma once

#include <cstdint>

#include "sim/contracts.hpp"
#include "sim/error.hpp"

namespace ssq::core {

/// Finite-counter management policies (§3.1 "Finite Counters and Real Time
/// Clock" + "Improving Latency Fairness").
enum class CounterPolicy : std::uint8_t {
  /// auxVC <- max(auxVC, real_time) - real_time, implemented with an epoch
  /// counter: when the real-time LSB counter saturates, every auxVC's MSB
  /// value drops by one and thermometer codes shift down one lane. The
  /// paper's default SSVC scheme.
  SubtractRealClock = 0,
  /// When any auxVC saturates, all auxVC registers (and the epoch-relative
  /// real-time reference) are halved; thermometer codes compress: "the top
  /// half of the thermometer code is copied to the bottom half".
  Halve = 1,
  /// When any auxVC saturates, all auxVC registers and thermometer codes
  /// reset to zero. Least latency variance across allocations (Fig. 5).
  Reset = 2,
  /// No management: counters are wide enough to never saturate during the
  /// run. Models the original Virtual Clock's unbounded clock and is used by
  /// the Fig. 5 baseline and by differential tests.
  None = 3,
};

[[nodiscard]] constexpr const char* to_string(CounterPolicy p) noexcept {
  switch (p) {
    case CounterPolicy::SubtractRealClock: return "subtract_real_clock";
    case CounterPolicy::Halve: return "halve";
    case CounterPolicy::Reset: return "reset";
    case CounterPolicy::None: return "none";
  }
  return "?";
}

// Retired aliases of one value; ROADMAP item 9 deletes them with core.kernel.*
enum class ArbKernel : std::uint8_t {
  Scalar = 0,
  Bitsliced = Scalar,
  Simd = Scalar,
};

struct SsvcParams {
  /// MSBs of auxVC exposed to arbitration; the thermometer code has
  /// 2^level_bits bits, one per GB lane.
  std::uint32_t level_bits = 3;
  /// Low bits of auxVC at cycle granularity; also the width of the shared
  /// real-time clock counter.
  std::uint32_t lsb_bits = 8;
  /// Width of the per-crosspoint Vtick register.
  std::uint32_t vtick_bits = 8;
  /// Power-of-two Vtick pre-scale: stored value v represents v << vtick_shift
  /// cycles.
  std::uint32_t vtick_shift = 2;
  /// Finite-counter management policy.
  CounterPolicy policy = CounterPolicy::SubtractRealClock;

  /// Number of GB levels distinguishable by arbitration.
  [[nodiscard]] constexpr std::uint32_t gb_levels() const noexcept {
    return 1u << level_bits;
  }
  /// Saturation cap of the auxVC register (inclusive).
  [[nodiscard]] constexpr std::uint64_t aux_vc_cap() const noexcept {
    return (1ULL << (level_bits + lsb_bits)) - 1;
  }
  /// Cycles per epoch of the real-time clock counter.
  [[nodiscard]] constexpr std::uint64_t epoch_cycles() const noexcept {
    return 1ULL << lsb_bits;
  }
  /// Largest Vtick (in cycles) representable by the register.
  [[nodiscard]] constexpr std::uint64_t max_vtick_cycles() const noexcept {
    return ((1ULL << vtick_bits) - 1) << vtick_shift;
  }

  /// Throws ssq::ConfigError on out-of-range geometry — these values come
  /// straight from CLI flags and workload files.
  void validate() const {
    detail::config_check(level_bits >= 1 && level_bits <= 6,
                         "ssvc level_bits out of range [1,6]");
    detail::config_check(lsb_bits >= 1 && lsb_bits <= 20,
                         "ssvc lsb_bits out of range [1,20]");
    detail::config_check(level_bits + lsb_bits <= 40,
                         "ssvc counter wider than 40 bits");
    detail::config_check(vtick_bits >= 1 && vtick_bits <= 20,
                         "ssvc vtick_bits out of range [1,20]");
    detail::config_check(vtick_shift <= 12,
                         "ssvc vtick_shift out of range [0,12]");
  }
};

/// Quantises an ideal Vtick (cycles, real-valued) to the finite register.
/// Returns the register's represented value in cycles (>= 1). Rounds to
/// nearest representable; saturates at the register maximum.
[[nodiscard]] std::uint64_t quantize_vtick(const SsvcParams& params,
                                           double ideal_vtick_cycles);

/// Ideal Vtick for a flow reserving fraction `rate` of an output channel
/// with `packet_len` flits per packet: mean inter-packet time in cycles.
[[nodiscard]] double ideal_vtick(double rate, std::uint32_t packet_len);

}  // namespace ssq::core
