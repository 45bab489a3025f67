// Oldest-first (age-based) arbiter.
//
// Picks the request whose head packet was injected earliest (Request::key
// carries the injection cycle). Ties break toward the lower input index.
// Age arbitration is a common NoC fairness baseline: it is starvation-free
// but offers no bandwidth differentiation.
#pragma once

#include "arb/arbiter.hpp"

namespace ssq::arb {

class AgeArbiter final : public Arbiter {
 public:
  explicit AgeArbiter(std::uint32_t radix) : Arbiter(radix) {}

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override {
    SSQ_EXPECT(input < radix());
    (void)length;
    (void)now;
  }
};

}  // namespace ssq::arb
