#include "arb/wfq.hpp"

namespace ssq::arb {

WfqArbiter::WfqArbiter(std::uint32_t radix, std::vector<double> weights)
    : Arbiter(radix), weights_(std::move(weights)) {
  SSQ_EXPECT(weights_.size() == radix);
  for (double w : weights_) SSQ_EXPECT(w > 0.0);
  last_tag_.assign(radix, 0.0);
  head_tag_.assign(radix, 0.0);
  pinned_.assign(radix, false);
}

InputId WfqArbiter::pick(std::span<const Request> requests, Cycle /*now*/) {
  check_requests(requests);
  if (requests.empty()) return kNoPort;
  InputId winner = kNoPort;
  double best = 0.0;
  for (const auto& r : requests) {
    const double tag = head_tag(r.input, r.length);
    if (winner == kNoPort || tag < best ||
        (tag == best && r.input < winner)) {
      winner = r.input;
      best = tag;
    }
  }
  return winner;
}

void WfqArbiter::on_grant(InputId input, std::uint32_t length, Cycle /*now*/) {
  SSQ_EXPECT(input < radix());
  const double tag = head_tag(input, length);
  pinned_[input] = false;  // the head packet departs; the next one re-pins
  last_tag_[input] = tag;
  // Self-clocking: system virtual time jumps to the in-service finish tag.
  vtime_ = tag;
}

}  // namespace ssq::arb
