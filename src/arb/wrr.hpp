// Weighted Round-Robin (WRR) arbiter — a static bandwidth-guarantee baseline
// (§2.2: "Static approaches such as WRR and DWRR can provide strict bandwidth
// guarantees [17]. However, WRR and DWRR lead to network underutilization as
// they do not distribute leftover bandwidth equally…").
//
// Each input holds an integer weight = packets it may send per round. The
// arbiter serves requesters round-robin, consuming one credit per grant; when
// no requester has credit left, a new round begins (credits reload). Reload
// only considers current requesters, so the policy is work-conserving at the
// link level, but leftover bandwidth goes to whoever happens to be backlogged
// at reload time rather than proportionally — the weakness the paper cites.
//
// Contract note: pick() computes the winner (and any reloads needed) from
// committed state without publishing it; on_grant(winner) must follow a
// pick() that returned that winner and commits the staged state.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class WrrArbiter final : public Arbiter {
 public:
  /// `weights[i]` >= 1 packets per round for input i.
  WrrArbiter(std::uint32_t radix, std::vector<std::uint32_t> weights);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] std::uint32_t credit(InputId i) const {
    SSQ_EXPECT(i < radix());
    return credits_[i];
  }

 private:
  std::vector<std::uint32_t> weights_;
  std::vector<std::uint32_t> credits_;
  InputId pointer_ = 0;

  // Staged by pick(), committed by on_grant().
  std::vector<std::uint32_t> staged_credits_;
  InputId staged_winner_ = kNoPort;
  InputId staged_pointer_ = 0;
};

}  // namespace ssq::arb
