// Packet-level Weighted Fair Queueing in the self-clocked (SCFQ, Golestani)
// formulation — the bit-by-bit round-robin emulation family the paper cites
// (§2.2: FQ/WFQ "compute finish times for packets … O(N) complexity").
//
// Virtual time v(t) is the finish tag of the packet in service. A head
// packet of input i gets tag_i = max(v, last_tag_i) + length / weight_i,
// assigned ONCE when the packet is first seen at the head (its "arrival" at
// the scheduler) and held until served — recomputing it against the sliding
// v would let served flows lap unserved ones forever. The smallest pinned
// tag wins. pick() therefore pins tags for newly seen heads (internal
// bookkeeping); on_grant() consumes the winner's pin and advances v to it.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class WfqArbiter final : public Arbiter {
 public:
  /// `weights[i]` > 0, relative service shares (need not sum to 1).
  WfqArbiter(std::uint32_t radix, std::vector<double> weights);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] double virtual_time() const noexcept { return vtime_; }

 private:
  /// Pins (or returns the pinned) finish tag for input's head packet.
  double head_tag(InputId input, std::uint32_t length) {
    if (!pinned_[input]) {
      const double start =
          last_tag_[input] > vtime_ ? last_tag_[input] : vtime_;
      head_tag_[input] = start + static_cast<double>(length) / weights_[input];
      pinned_[input] = true;
    }
    return head_tag_[input];
  }

  std::vector<double> weights_;
  std::vector<double> last_tag_;
  std::vector<double> head_tag_;
  std::vector<bool> pinned_;
  double vtime_ = 0.0;
};

}  // namespace ssq::arb
