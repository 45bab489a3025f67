// Deficit Weighted Round-Robin (DWRR) arbiter [Shreedhar & Varghese,
// SIGCOMM'95] — the variable-packet-size-correct static baseline (§2.2).
//
// Each input carries a deficit counter in flits. Visiting an input during a
// round adds its quantum; the input may transmit head packets while the
// deficit covers their length. Unlike WRR, bandwidth shares are exact in
// flits even with mixed packet sizes.
//
// Same staging contract as WrrArbiter: pick() stages, on_grant() commits.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class DwrrArbiter final : public Arbiter {
 public:
  /// `quanta[i]` >= 1 flits added per round visit. For guaranteed-share
  /// configurations choose quanta proportional to the reserved rates with
  /// min(quanta) >= the largest packet length (the classic O(1) condition).
  DwrrArbiter(std::uint32_t radix, std::vector<std::uint32_t> quanta);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] std::uint64_t deficit(InputId i) const {
    SSQ_EXPECT(i < radix());
    return deficits_[i];
  }

 private:
  std::vector<std::uint32_t> quanta_;
  std::vector<std::uint64_t> deficits_;
  InputId pointer_ = 0;

  std::vector<std::uint64_t> staged_deficits_;
  InputId staged_winner_ = kNoPort;
  InputId staged_pointer_ = 0;
};

}  // namespace ssq::arb
