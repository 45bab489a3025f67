#include "arb/wrr.hpp"

namespace ssq::arb {

WrrArbiter::WrrArbiter(std::uint32_t radix, std::vector<std::uint32_t> weights)
    : Arbiter(radix), weights_(std::move(weights)) {
  SSQ_EXPECT(weights_.size() == radix);
  for (auto w : weights_) SSQ_EXPECT(w >= 1);
  credits_ = weights_;
  staged_credits_ = credits_;
}

InputId WrrArbiter::pick(std::span<const Request> requests, Cycle /*now*/) {
  check_requests(requests);
  staged_winner_ = kNoPort;
  if (requests.empty()) return kNoPort;

  std::uint64_t mask = 0;
  for (const auto& r : requests) mask |= 1ULL << r.input;

  staged_credits_ = credits_;
  staged_pointer_ = pointer_;
  // At most one reload is ever needed: after reloading, every requester has
  // credit >= 1 (weights are >= 1).
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::uint32_t off = 0; off < radix(); ++off) {
      const InputId candidate = (staged_pointer_ + off) % radix();
      if (((mask >> candidate) & 1ULL) && staged_credits_[candidate] > 0) {
        staged_winner_ = candidate;
        --staged_credits_[candidate];
        // Round-robin within a round: move past the winner.
        staged_pointer_ = (candidate + 1) % radix();
        return candidate;
      }
    }
    // No requester has credit: new round for the current requesters.
    for (const auto& r : requests) staged_credits_[r.input] = weights_[r.input];
  }
  SSQ_ENSURE(false && "WRR reload failed to produce a winner");
  return kNoPort;
}

void WrrArbiter::on_grant(InputId input, std::uint32_t /*length*/,
                          Cycle /*now*/) {
  SSQ_EXPECT(input == staged_winner_);
  credits_ = staged_credits_;
  pointer_ = staged_pointer_;
  staged_winner_ = kNoPort;
}

}  // namespace ssq::arb
