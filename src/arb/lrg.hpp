// Least-Recently-Granted (LRG) matrix arbiter — the Swizzle Switch's native
// policy [Satpathy ISSCC'12] and the paper's Fig. 4(a) no-QoS baseline.
//
// State is an N×N "beats" relation stored as one bitmask row per input:
// row(i) bit j == 1 means i currently has priority over j. The relation is a
// strict total order at all times; granting input w moves it to the back
// (row(w) cleared, bit w set in every other row), which is exactly the
// hardware's self-updating priority flop behaviour. In silicon each
// crosspoint stores its own 63-bit row (Table 1); here the matrix is per
// output and shared by all classes, matching that layout.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class LrgArbiter final : public Arbiter {
 public:
  explicit LrgArbiter(std::uint32_t radix);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  /// True iff input `i` currently has priority over input `j` (i != j).
  [[nodiscard]] bool beats(InputId i, InputId j) const;

  /// Row of the beats matrix for input `i` (bit j set == i beats j).
  /// (Inline: read per input by winner().)
  [[nodiscard]] std::uint64_t row(InputId i) const {
    SSQ_EXPECT(i < radix());
    return rows_[i];
  }

  /// Rank of `i` in the current priority order: 0 == most-preferred
  /// (least recently granted). In a strict total order, rank == number of
  /// inputs that beat i. (Inline: per-input state comparison hot path.)
  [[nodiscard]] std::uint32_t rank(InputId i) const {
    SSQ_EXPECT(i < radix());
    return radix() - 1 -
           static_cast<std::uint32_t>(std::popcount(rows_[i]));
  }

  /// The one LRG resolution over a requester set (bit i == input i
  /// requests; non-empty): the requester whose row covers every other
  /// requester. A strict total order has exactly one, so the scan order
  /// cannot change it. On a corrupt matrix in fault-tolerant mode the
  /// requester that beats the most other requesters wins, lowest index on
  /// ties. (Inline: runs on every SSVC arbitration.)
  [[nodiscard]] InputId winner(std::uint64_t mask) const {
    SSQ_EXPECT(mask != 0);
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(m));
      const std::uint64_t others = mask & ~(1ULL << i);
      if ((row(i) & others) == others) return i;
    }
    return degraded_winner(mask);
  }

  /// Directly installs a beats matrix (used by the circuit-equivalence tests
  /// to enumerate "all valid LRG states" as the paper's §4.1 verification
  /// does). Rows must encode a strict total order; enforced.
  void set_matrix(const std::vector<std::uint64_t>& rows);

  /// Checks the strict-total-order invariant (irreflexive, asymmetric,
  /// total, transitive) in O(radix): out-degrees form a permutation of
  /// {0..radix-1} and each row is the set of inputs of lower degree.
  [[nodiscard]] bool is_total_order() const;

  // ---- fault injection / scrubbing (hardware DFT surface) ----

  /// Flips bit `j` of row `i` — a soft error in one crosspoint priority
  /// flop. Breaks the total order until repair_order() rebuilds it.
  void fault_flip(InputId i, InputId j);

  /// Rebuilds a strict total order from a corrupted matrix: inputs are
  /// ranked by surviving out-degree (ties broken toward the lower index, the
  /// hardware's wired tie-break) and the matrix rewritten to that order —
  /// the closest consistent state to what the flipped flops still encode.
  /// Returns true iff the matrix was actually repaired.
  bool repair_order();

  /// Fault-tolerant mode: winner() on a matrix that has lost its total order
  /// degrades to the max-out-degree requester instead of aborting. Enabled
  /// by the fault subsystem when an injector is attached; detached operation
  /// keeps the strict abort so silent corruption cannot skew results.
  void set_fault_tolerant(bool on) noexcept { fault_tolerant_ = on; }

 private:
  /// winner() when no requester covers the rest: the max-out-degree rule in
  /// fault-tolerant mode, a contract failure otherwise.
  [[nodiscard]] InputId degraded_winner(std::uint64_t mask) const;

  std::vector<std::uint64_t> rows_;
  bool fault_tolerant_ = false;
};

}  // namespace ssq::arb
