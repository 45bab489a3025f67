#include "arb/virtual_clock.hpp"

namespace ssq::arb {

VirtualClockArbiter::VirtualClockArbiter(std::uint32_t radix,
                                         std::vector<double> vticks)
    : Arbiter(radix), vticks_(std::move(vticks)) {
  SSQ_EXPECT(vticks_.size() == radix);
  for (double v : vticks_) SSQ_EXPECT(v > 0.0);
  vc_.assign(radix, 0.0);
}

InputId VirtualClockArbiter::pick(std::span<const Request> requests,
                                  Cycle /*now*/) {
  check_requests(requests);
  if (requests.empty()) return kNoPort;
  InputId winner = kNoPort;
  double best = 0.0;
  for (const auto& r : requests) {
    const double vc = vc_[r.input];
    if (winner == kNoPort || vc < best || (vc == best && r.input < winner)) {
      winner = r.input;
      best = vc;
    }
  }
  return winner;
}

void VirtualClockArbiter::on_grant(InputId input, std::uint32_t /*length*/,
                                   Cycle now) {
  SSQ_EXPECT(input < radix());
  const double t = static_cast<double>(now);
  const double clamped = vc_[input] > t ? vc_[input] : t;
  vc_[input] = clamped + vticks_[input];
}

}  // namespace ssq::arb
