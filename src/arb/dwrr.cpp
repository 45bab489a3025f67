#include "arb/dwrr.hpp"

namespace ssq::arb {

DwrrArbiter::DwrrArbiter(std::uint32_t radix, std::vector<std::uint32_t> quanta)
    : Arbiter(radix), quanta_(std::move(quanta)) {
  SSQ_EXPECT(quanta_.size() == radix);
  for (auto q : quanta_) SSQ_EXPECT(q >= 1);
  deficits_.assign(radix, 0);
  staged_deficits_ = deficits_;
}

InputId DwrrArbiter::pick(std::span<const Request> requests, Cycle /*now*/) {
  check_requests(requests);
  staged_winner_ = kNoPort;
  if (requests.empty()) return kNoPort;

  // Head-packet length per requesting input.
  std::uint64_t mask = 0;
  std::uint32_t length[64] = {};
  std::uint32_t max_len = 1;
  for (const auto& r : requests) {
    mask |= 1ULL << r.input;
    length[r.input] = r.length;
    if (r.length > max_len) max_len = r.length;
  }

  staged_deficits_ = deficits_;
  staged_pointer_ = pointer_;
  // Each full pass adds >= min(quanta) to every requester, so at most
  // ceil(max_len / min_quantum) + 1 passes are needed; bound generously.
  const std::uint32_t max_rounds = max_len + 2;
  for (std::uint32_t round = 0; round < max_rounds; ++round) {
    for (std::uint32_t off = 0; off < radix(); ++off) {
      const InputId candidate = (staged_pointer_ + off) % radix();
      if (!((mask >> candidate) & 1ULL)) continue;
      if (staged_deficits_[candidate] >= length[candidate]) {
        staged_winner_ = candidate;
        staged_deficits_[candidate] -= length[candidate];
        // Keep the pointer on the winner: DWRR keeps serving a queue while
        // its deficit lasts.
        staged_pointer_ = candidate;
        return candidate;
      }
      // Visit without service: refill and move on (one refill per visit).
      staged_deficits_[candidate] += quanta_[candidate];
    }
  }
  SSQ_ENSURE(false && "DWRR refill failed to produce a winner");
  return kNoPort;
}

void DwrrArbiter::on_grant(InputId input, std::uint32_t /*length*/,
                           Cycle /*now*/) {
  SSQ_EXPECT(input == staged_winner_);
  deficits_ = staged_deficits_;
  pointer_ = staged_pointer_;
  staged_winner_ = kNoPort;
}

}  // namespace ssq::arb
