// Static fixed-priority arbiter.
//
// The priority order never changes; lower order index wins. This is the
// starvation-prone policy the paper contrasts against (§2.2 third difference
// from the 4-level QoS design of [14]): "the previous design used a
// fixed-priority QoS mechanism ... which could lead to starvation". Included
// both as a baseline and for tests that demonstrate that starvation.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class FixedPriorityArbiter final : public Arbiter {
 public:
  /// Default order: input 0 highest priority.
  explicit FixedPriorityArbiter(std::uint32_t radix);

  /// Custom order: order[k] = input with the k-th highest priority. Must be
  /// a permutation of 0..radix-1.
  FixedPriorityArbiter(std::uint32_t radix, std::vector<InputId> order);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override {
    SSQ_EXPECT(input < radix());
    (void)length;
    (void)now;
  }

 private:
  std::vector<InputId> order_;
};

}  // namespace ssq::arb
