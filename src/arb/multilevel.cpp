#include "arb/multilevel.hpp"

namespace ssq::arb {

MultiLevelArbiter::MultiLevelArbiter(std::uint32_t radix,
                                     std::uint32_t num_levels)
    : Arbiter(radix), num_levels_(num_levels), lrg_(radix) {
  SSQ_EXPECT(num_levels >= 2 && num_levels <= 16);
}

InputId MultiLevelArbiter::pick(std::span<const Request> requests,
                                Cycle /*now*/) {
  check_requests(requests);
  if (requests.empty()) return kNoPort;
  std::uint32_t best_level = 0;
  for (const auto& r : requests) {
    SSQ_EXPECT(r.priority < num_levels_);
    if (r.priority > best_level) best_level = r.priority;
  }
  std::uint64_t top = 0;  // requesters at the highest level present
  for (const auto& r : requests) {
    if (r.priority == best_level) top |= 1ULL << r.input;
  }
  return lrg_.winner(top);
}

void MultiLevelArbiter::on_grant(InputId input, std::uint32_t length,
                                 Cycle now) {
  lrg_.on_grant(input, length, now);
}

}  // namespace ssq::arb
