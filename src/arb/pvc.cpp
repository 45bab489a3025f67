#include "arb/pvc.hpp"

#include <cmath>

namespace ssq::arb {

PvcArbiter::PvcArbiter(std::uint32_t radix, std::vector<double> shares,
                       Cycle frame_cycles, std::uint32_t levels)
    : Arbiter(radix), share_(std::move(shares)), frame_(frame_cycles),
      levels_(levels) {
  SSQ_EXPECT(share_.size() == radix);
  SSQ_EXPECT(frame_cycles >= 16);
  SSQ_EXPECT(levels >= 2 && levels <= 64);
  double total = 0.0;
  for (double s : share_) {
    SSQ_EXPECT(s > 0.0);
    total += s;
  }
  for (double& s : share_) s /= total;
  consumed_.assign(radix, 0);
}

void PvcArbiter::roll_frame(Cycle now) {
  while (now >= frame_start_ + frame_) {
    frame_start_ += frame_;
    for (auto& c : consumed_) c = 0;
  }
}

std::uint32_t PvcArbiter::level(InputId i, Cycle now) {
  SSQ_EXPECT(i < radix());
  roll_frame(now);
  // Fraction of the flow's per-frame budget already consumed, quantised.
  const double budget = share_[i] * static_cast<double>(frame_);
  const double used = static_cast<double>(consumed_[i]) / budget;
  const auto lvl = static_cast<std::uint32_t>(used *
                                              static_cast<double>(levels_));
  return lvl >= levels_ ? levels_ - 1 : lvl;
}

InputId PvcArbiter::pick(std::span<const Request> requests, Cycle now) {
  check_requests(requests);
  if (requests.empty()) return kNoPort;
  roll_frame(now);
  std::uint32_t best_level = levels_;
  for (const auto& r : requests) {
    best_level = std::min(best_level, level(r.input, now));
  }
  // Round-robin within the winning level.
  InputId winner = kNoPort;
  for (std::uint32_t off = 0; off < radix(); ++off) {
    const InputId candidate = (rr_ + off) % radix();
    for (const auto& r : requests) {
      if (r.input == candidate && level(candidate, now) == best_level) {
        winner = candidate;
        break;
      }
    }
    if (winner != kNoPort) break;
  }
  return winner;
}

void PvcArbiter::on_grant(InputId input, std::uint32_t length, Cycle now) {
  SSQ_EXPECT(input < radix());
  roll_frame(now);
  consumed_[input] += length;
  rr_ = (input + 1) % radix();
}

}  // namespace ssq::arb
