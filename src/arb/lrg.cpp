#include "arb/lrg.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace ssq::arb {

LrgArbiter::LrgArbiter(std::uint32_t radix) : Arbiter(radix) {
  rows_.resize(radix);
  reset();
}

void LrgArbiter::reset() {
  // Initial total order: 0 beats 1 beats 2 ... (input 0 most-preferred).
  for (InputId i = 0; i < radix(); ++i) {
    std::uint64_t row = 0;
    for (InputId j = i + 1; j < radix(); ++j) row |= 1ULL << j;
    rows_[i] = row;
  }
}

bool LrgArbiter::beats(InputId i, InputId j) const {
  SSQ_EXPECT(i < radix() && j < radix() && i != j);
  return (rows_[i] >> j) & 1ULL;
}

InputId LrgArbiter::pick(std::span<const Request> requests, Cycle /*now*/) {
  check_requests(requests);
  if (requests.empty()) return kNoPort;
  std::uint64_t mask = 0;
  for (const auto& r : requests) mask |= 1ULL << r.input;
  return winner(mask);
}

InputId LrgArbiter::degraded_winner(std::uint64_t mask) const {
  // Corrupted matrix: no requester beats all the others. Degrade to the
  // requester that beats the most other requesters (lowest index on ties) —
  // bounded unfairness until the scrubber repairs the order.
  SSQ_ENSURE(fault_tolerant_ && "LRG matrix lost its total order");
  InputId best = kNoPort;
  int best_deg = -1;
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(m));
    const int deg = std::popcount(rows_[i] & mask & ~(1ULL << i));
    if (deg > best_deg) {
      best_deg = deg;
      best = i;
    }
  }
  return best;
}

void LrgArbiter::on_grant(InputId input, std::uint32_t /*length*/,
                          Cycle /*now*/) {
  SSQ_EXPECT(input < radix());
  // Move-to-back: the winner now loses to everyone.
  rows_[input] = 0;
  const std::uint64_t bit = 1ULL << input;
  for (InputId j = 0; j < radix(); ++j) {
    if (j != input) rows_[j] |= bit;
  }
}

void LrgArbiter::set_matrix(const std::vector<std::uint64_t>& rows) {
  SSQ_EXPECT(rows.size() == radix());
  rows_ = rows;
  SSQ_EXPECT(is_total_order());
}

void LrgArbiter::fault_flip(InputId i, InputId j) {
  SSQ_EXPECT(i < radix() && j < radix());
  rows_[i] ^= 1ULL << j;
}

bool LrgArbiter::repair_order() {
  if (is_total_order()) return false;
  const std::uint32_t n = radix();
  // Rank by surviving out-degree: the input whose row still claims the most
  // wins becomes most-preferred. Ties go to the lower index.
  std::vector<InputId> order(n);
  for (InputId i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](InputId a, InputId b) {
    return std::popcount(rows_[a]) > std::popcount(rows_[b]);
  });
  // Rewrite the matrix as exactly that total order.
  std::uint64_t remaining = 0;
  for (InputId i = 0; i < n; ++i) remaining |= 1ULL << i;
  for (InputId k = 0; k < n; ++k) {
    const InputId who = order[k];
    remaining &= ~(1ULL << who);
    rows_[who] = remaining;
  }
  SSQ_ENSURE(is_total_order());
  return true;
}

bool LrgArbiter::is_total_order() const {
  const std::uint32_t n = radix();
  // A strict total order on n inputs gives each a distinct out-degree, so
  // the degrees are a permutation of {0..n-1}, and each row is exactly the
  // set of inputs of lower degree. Conversely, rows of that form are
  // irreflexive, carry no stray bits, hold exactly one of beats(i,j) and
  // beats(j,i), and are transitive: the same predicate in O(n).
  std::array<InputId, 64> by_degree{};
  std::uint64_t degrees_seen = 0;
  for (InputId i = 0; i < n; ++i) {
    const auto deg = static_cast<std::uint32_t>(std::popcount(rows_[i]));
    if (deg >= n) return false;
    if ((degrees_seen >> deg) & 1ULL) return false;
    degrees_seen |= 1ULL << deg;
    by_degree[deg] = i;
  }
  std::uint64_t below = 0;  // inputs of degree < d
  for (std::uint32_t d = 0; d < n; ++d) {
    const InputId i = by_degree[d];
    if (rows_[i] != below) return false;
    below |= 1ULL << i;
  }
  return true;
}

}  // namespace ssq::arb
