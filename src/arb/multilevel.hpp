// Fixed-priority multi-level message arbiter — the 4-level message-based QoS
// of the earlier Swizzle Switch design [Satpathy et al., DAC'12], the prior
// art the paper differentiates SSVC from (§2.2):
//
//   1. "inputs could only assign a priority level to messages and could not
//      control how much bandwidth each priority level receives",
//   2. "the previous design used a fixed-priority QoS mechanism (highest
//      level messages are prioritized first), which could lead to starvation
//      of messages in other levels",
//   3. "the previous design required two arbitration cycles" (modelled by
//      SwitchConfig::arbitration_cycles = 2).
//
// Arbitration: the highest message priority present wins the level compare;
// LRG matrix state breaks ties within the level. Request::priority carries
// the message level (0 = lowest).
#pragma once

#include "arb/arbiter.hpp"
#include "arb/lrg.hpp"

namespace ssq::arb {

class MultiLevelArbiter final : public Arbiter {
 public:
  /// `num_levels` message priority levels (4 in [14]).
  MultiLevelArbiter(std::uint32_t radix, std::uint32_t num_levels = 4);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] std::uint32_t num_levels() const noexcept {
    return num_levels_;
  }
  [[nodiscard]] const LrgArbiter& lrg() const noexcept { return lrg_; }

 private:
  std::uint32_t num_levels_;
  LrgArbiter lrg_;
};

}  // namespace ssq::arb
