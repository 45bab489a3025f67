// Classic rotating-pointer round-robin arbiter.
//
// The pointer names the most-preferred input; after a grant it advances to
// one past the winner, so each input waits at most N-1 grants.
#pragma once

#include "arb/arbiter.hpp"

namespace ssq::arb {

class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(std::uint32_t radix) : Arbiter(radix) {}

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] InputId pointer() const noexcept { return pointer_; }

 private:
  InputId pointer_ = 0;
};

}  // namespace ssq::arb
