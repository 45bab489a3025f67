// Tests for src/arb: each arbiter's policy semantics plus share-accuracy
// harnesses that emulate a saturated output (every input always requesting).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "arb/age.hpp"
#include "arb/arbiter.hpp"
#include "arb/dwrr.hpp"
#include "arb/factory.hpp"
#include "arb/fixed_priority.hpp"
#include "arb/lrg.hpp"
#include "arb/multilevel.hpp"
#include "arb/pvc.hpp"
#include "arb/round_robin.hpp"
#include "arb/tdm.hpp"
#include "arb/virtual_clock.hpp"
#include "arb/wfq.hpp"
#include "arb/wrr.hpp"
#include "sim/rng.hpp"

namespace ssq::arb {
namespace {

std::vector<Request> all_requesting(std::uint32_t radix,
                                    std::uint32_t length = 1) {
  std::vector<Request> reqs;
  for (InputId i = 0; i < radix; ++i) reqs.push_back({i, length, 0});
  return reqs;
}

/// Saturated-output share harness: all inputs always request packets of
/// `length[i]` flits; returns flits granted per input over `grants` grants.
std::vector<std::uint64_t> run_saturated(Arbiter& arb,
                                         const std::vector<std::uint32_t>& len,
                                         int grants) {
  std::vector<std::uint64_t> flits(arb.radix(), 0);
  Cycle now = 0;
  for (int g = 0; g < grants; ++g) {
    std::vector<Request> reqs;
    for (InputId i = 0; i < arb.radix(); ++i) reqs.push_back({i, len[i], now});
    const InputId w = arb.pick(reqs, now);
    EXPECT_NE(w, kNoPort) << "saturated pick must always find a winner";
    if (w == kNoPort) return flits;
    arb.on_grant(w, len[w], now);
    flits[w] += len[w];
    now += len[w] + 1;  // transfer + arbitration cycle
  }
  return flits;
}

// ---------------------------------------------------------------- LRG ----

TEST(LrgTest, InitialOrderIsTotalAndIndexed) {
  LrgArbiter lrg(8);
  EXPECT_TRUE(lrg.is_total_order());
  for (InputId i = 0; i < 8; ++i) EXPECT_EQ(lrg.rank(i), i);
  EXPECT_TRUE(lrg.beats(0, 7));
  EXPECT_FALSE(lrg.beats(7, 0));
}

TEST(LrgTest, GrantMovesWinnerToBack) {
  LrgArbiter lrg(4);
  const auto reqs = all_requesting(4);
  EXPECT_EQ(lrg.pick(reqs, 0), 0u);
  lrg.on_grant(0, 1, 0);
  EXPECT_TRUE(lrg.is_total_order());
  EXPECT_EQ(lrg.rank(0), 3u);
  EXPECT_EQ(lrg.pick(reqs, 1), 1u);
}

TEST(LrgTest, RoundRobinUnderSaturation) {
  LrgArbiter lrg(4);
  const auto reqs = all_requesting(4);
  std::vector<InputId> order;
  for (int g = 0; g < 8; ++g) {
    const InputId w = lrg.pick(reqs, 0);
    lrg.on_grant(w, 1, 0);
    order.push_back(w);
  }
  // LRG under full load degenerates to round-robin.
  const std::vector<InputId> expect = {0, 1, 2, 3, 0, 1, 2, 3};
  EXPECT_EQ(order, expect);
}

TEST(LrgTest, LeastRecentlyGrantedWinsAfterIdleness) {
  LrgArbiter lrg(4);
  // Only inputs 2 and 3 request for a while.
  std::vector<Request> pair = {{2, 1, 0}, {3, 1, 0}};
  for (int g = 0; g < 5; ++g) {
    const InputId w = lrg.pick(pair, 0);
    lrg.on_grant(w, 1, 0);
  }
  // Now 0 and 1, never granted, must beat both.
  const auto reqs = all_requesting(4);
  EXPECT_EQ(lrg.pick(reqs, 0), 0u);
}

TEST(LrgTest, SingleRequesterWins) {
  LrgArbiter lrg(8);
  std::vector<Request> one = {{5, 1, 0}};
  EXPECT_EQ(lrg.pick(one, 0), 5u);
}

TEST(LrgTest, EmptyRequestsYieldNoPort) {
  LrgArbiter lrg(8);
  EXPECT_EQ(lrg.pick({}, 0), kNoPort);
}

TEST(LrgTest, SetMatrixAcceptsValidOrders) {
  LrgArbiter lrg(3);
  // Order 2 > 0 > 1 (2 beats both, 0 beats 1).
  std::vector<std::uint64_t> rows = {/*0*/ 1ULL << 1, /*1*/ 0,
                                     /*2*/ (1ULL << 0) | (1ULL << 1)};
  lrg.set_matrix(rows);
  EXPECT_EQ(lrg.rank(2), 0u);
  EXPECT_EQ(lrg.rank(0), 1u);
  EXPECT_EQ(lrg.rank(1), 2u);
  const auto reqs = all_requesting(3);
  EXPECT_EQ(lrg.pick(reqs, 0), 2u);
}

TEST(LrgTest, TotalOrderPreservedUnderRandomGrants) {
  LrgArbiter lrg(16);
  Rng rng(31);
  for (int g = 0; g < 1000; ++g) {
    const auto w = static_cast<InputId>(rng.below(16));
    lrg.on_grant(w, 1, 0);
    ASSERT_TRUE(lrg.is_total_order());
    ASSERT_EQ(lrg.rank(w), 15u);
  }
}

/// is_total_order's former pairwise O(n^2) definition, kept as its oracle:
/// irreflexive, no stray bits, exactly one of beats(i,j) and beats(j,i),
/// and out-degrees a permutation of {0..n-1}.
bool pairwise_total_order(const LrgArbiter& lrg) {
  const std::uint32_t n = lrg.radix();
  for (InputId i = 0; i < n; ++i) {
    if ((lrg.row(i) >> i) & 1ULL) return false;
    if (n < 64 && (lrg.row(i) >> n) != 0) return false;
    for (InputId j = i + 1; j < n; ++j) {
      if (((lrg.row(i) >> j) & 1ULL) == ((lrg.row(j) >> i) & 1ULL)) {
        return false;
      }
    }
  }
  std::uint64_t degrees_seen = 0;
  for (InputId i = 0; i < n; ++i) {
    const auto deg = static_cast<std::uint32_t>(std::popcount(lrg.row(i)));
    if (deg >= n || ((degrees_seen >> deg) & 1ULL) != 0) return false;
    degrees_seen |= 1ULL << deg;
  }
  return true;
}

/// Beats matrix of the order `perm` (perm[0] most preferred).
std::vector<std::uint64_t> rows_of_order(const std::vector<InputId>& perm) {
  std::vector<std::uint64_t> rows(perm.size(), 0);
  for (std::size_t k = 0; k < perm.size(); ++k) {
    for (std::size_t m = k + 1; m < perm.size(); ++m) {
      rows[perm[k]] |= 1ULL << perm[m];
    }
  }
  return rows;
}

TEST(LrgTest, TotalOrderCheckMatchesThePairwiseDefinitionOnEveryOrder) {
  for (std::uint32_t n = 1; n <= 6; ++n) {
    std::vector<InputId> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    do {
      LrgArbiter lrg(n);
      lrg.set_matrix(rows_of_order(perm));
      ASSERT_TRUE(pairwise_total_order(lrg));
      ASSERT_TRUE(lrg.is_total_order());
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

TEST(LrgTest, TotalOrderCheckMatchesThePairwiseDefinitionOnEveryMatrix) {
  // Every n x n bit matrix for n <= 4, reached by flips from the reset order.
  for (std::uint32_t n = 1; n <= 4; ++n) {
    for (std::uint64_t m = 0; m < (1ULL << (n * n)); ++m) {
      LrgArbiter lrg(n);
      for (std::uint32_t b = 0; b < n * n; ++b) {
        const bool want = (m >> b) & 1ULL;
        const bool has = (lrg.row(b / n) >> (b % n)) & 1ULL;
        if (want != has) lrg.fault_flip(b / n, b % n);
      }
      ASSERT_EQ(lrg.is_total_order(), pairwise_total_order(lrg))
          << "n=" << n << " matrix=" << m;
    }
  }
}

TEST(LrgTest, TotalOrderCheckMatchesThePairwiseDefinitionUnderBitFlips) {
  Rng rng(17);
  std::uint64_t orders = 0;
  std::uint64_t broken = 0;
  for (std::uint32_t n = 2; n <= 64; ++n) {
    LrgArbiter lrg(n);
    for (int trial = 0; trial < 200; ++trial) {
      // A random reachable order, then one flip, two random flips, or the
      // two flops of one pair (a total order again iff the ranks touch).
      for (std::uint32_t g = 0; g < n; ++g) {
        lrg.on_grant(static_cast<InputId>(rng.below(n)), 1, 0);
      }
      const auto i = static_cast<InputId>(rng.below(n));
      const auto j = static_cast<InputId>(rng.below(n));
      const auto k = static_cast<InputId>(rng.below(n));
      const auto l = static_cast<InputId>(rng.below(n));
      std::vector<std::pair<InputId, InputId>> flips = {{i, j}};
      if (trial % 3 == 1) flips.emplace_back(k, l);
      if (trial % 3 == 2) flips.emplace_back(j, i);
      for (const auto& [a, b] : flips) lrg.fault_flip(a, b);
      const bool total = pairwise_total_order(lrg);
      ASSERT_EQ(lrg.is_total_order(), total)
          << "n=" << n << " trial " << trial;
      ++(total ? orders : broken);
      for (const auto& [a, b] : flips) lrg.fault_flip(a, b);  // undo
      ASSERT_TRUE(lrg.is_total_order());
    }
  }
  // Both verdicts must come up for the comparison to bite.
  EXPECT_GT(orders, 100u);
  EXPECT_GT(broken, 1000u);
}

// --------------------------------------------------------- RoundRobin ----

TEST(RoundRobinTest, RotatesPastWinner) {
  RoundRobinArbiter rr(4);
  const auto reqs = all_requesting(4);
  EXPECT_EQ(rr.pick(reqs, 0), 0u);
  rr.on_grant(0, 1, 0);
  EXPECT_EQ(rr.pointer(), 1u);
  EXPECT_EQ(rr.pick(reqs, 0), 1u);
}

TEST(RoundRobinTest, SkipsNonRequesters) {
  RoundRobinArbiter rr(4);
  std::vector<Request> reqs = {{2, 1, 0}, {3, 1, 0}};
  EXPECT_EQ(rr.pick(reqs, 0), 2u);
  rr.on_grant(2, 1, 0);
  EXPECT_EQ(rr.pick(reqs, 0), 3u);
  rr.on_grant(3, 1, 0);
  EXPECT_EQ(rr.pick(reqs, 0), 2u);  // wraps
}

// ------------------------------------------------------ FixedPriority ----

TEST(FixedPriorityTest, AlwaysPicksHighest) {
  FixedPriorityArbiter fp(4);
  const auto reqs = all_requesting(4);
  for (int g = 0; g < 10; ++g) {
    EXPECT_EQ(fp.pick(reqs, 0), 0u);  // starvation of 1..3: the §2.2 critique
    fp.on_grant(0, 1, 0);
  }
}

TEST(FixedPriorityTest, CustomOrder) {
  FixedPriorityArbiter fp(4, {3, 1, 0, 2});
  const auto reqs = all_requesting(4);
  EXPECT_EQ(fp.pick(reqs, 0), 3u);
  std::vector<Request> no3 = {{0, 1, 0}, {1, 1, 0}, {2, 1, 0}};
  EXPECT_EQ(fp.pick(no3, 0), 1u);
}

// ---------------------------------------------------------------- Age ----

TEST(AgeTest, OldestWinsTiesToLowerIndex) {
  AgeArbiter age(4);
  std::vector<Request> reqs = {{0, 1, 30}, {1, 1, 10}, {2, 1, 10}, {3, 1, 20}};
  EXPECT_EQ(age.pick(reqs, 100), 1u);
}

// ---------------------------------------------------------------- WRR ----

TEST(WrrTest, SharesMatchWeightsUnderSaturation) {
  WrrArbiter wrr(4, {4, 2, 1, 1});
  std::vector<std::uint32_t> len(4, 1);
  std::vector<std::uint64_t> flits(4, 0);
  Cycle now = 0;
  for (int g = 0; g < 8000; ++g) {
    std::vector<Request> reqs;
    for (InputId i = 0; i < 4; ++i) reqs.push_back({i, 1, now});
    const InputId w = wrr.pick(reqs, now);
    wrr.on_grant(w, 1, now);
    ++flits[w];
    ++now;
  }
  EXPECT_NEAR(static_cast<double>(flits[0]) / 8000.0, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(flits[1]) / 8000.0, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(flits[2]) / 8000.0, 0.125, 0.01);
}

TEST(WrrTest, GrantRequiresPrecedingPick) {
  WrrArbiter wrr(2, {1, 1});
  const auto reqs = all_requesting(2);
  const InputId w = wrr.pick(reqs, 0);
  wrr.on_grant(w, 1, 0);  // OK
  EXPECT_EQ(wrr.credit(w), 0u);
}

TEST(WrrTest, LeftoverGoesToBackloggedNotProportionally) {
  // The paper's critique: when input 0 (weight 4) goes idle, WRR's leftover
  // is not redistributed 2:1:1 — the remaining inputs just round-robin their
  // own weights. With equal remaining weights they split evenly regardless.
  WrrArbiter wrr(3, {4, 1, 1});
  std::vector<std::uint64_t> flits(3, 0);
  for (int g = 0; g < 2000; ++g) {
    std::vector<Request> reqs = {{1, 1, 0}, {2, 1, 0}};
    const InputId w = wrr.pick(reqs, 0);
    wrr.on_grant(w, 1, 0);
    ++flits[w];
  }
  EXPECT_NEAR(static_cast<double>(flits[1]) / 2000.0, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(flits[2]) / 2000.0, 0.5, 0.02);
}

// --------------------------------------------------------------- DWRR ----

TEST(DwrrTest, FlitExactSharesWithMixedPacketSizes) {
  // Input 0 sends 8-flit packets, input 1 sends 1-flit packets, equal quanta
  // -> equal flit shares (what packet-count WRR would get wrong).
  DwrrArbiter dwrr(2, {8, 8});
  std::vector<std::uint32_t> len = {8, 1};
  auto flits = run_saturated(dwrr, len, 9000);
  const double total = static_cast<double>(flits[0] + flits[1]);
  EXPECT_NEAR(static_cast<double>(flits[0]) / total, 0.5, 0.02);
}

TEST(DwrrTest, WeightedShares) {
  DwrrArbiter dwrr(3, {24, 16, 8});
  std::vector<std::uint32_t> len = {4, 4, 4};
  auto flits = run_saturated(dwrr, len, 6000);
  const double total =
      static_cast<double>(flits[0] + flits[1] + flits[2]);
  EXPECT_NEAR(static_cast<double>(flits[0]) / total, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(flits[1]) / total, 1.0 / 3.0, 0.02);
  EXPECT_NEAR(static_cast<double>(flits[2]) / total, 1.0 / 6.0, 0.02);
}

TEST(DwrrTest, DeficitCarriesAcrossRounds) {
  // Quantum 3 < packet 8: input must accumulate 3 rounds of deficit.
  DwrrArbiter dwrr(2, {3, 3});
  std::vector<std::uint32_t> len = {8, 8};
  auto flits = run_saturated(dwrr, len, 100);
  EXPECT_NEAR(static_cast<double>(flits[0]),
              static_cast<double>(flits[1]), 16.0);
}

// ---------------------------------------------------------------- WFQ ----

TEST(WfqTest, SharesTrackWeights) {
  WfqArbiter wfq(3, {0.5, 0.3, 0.2});
  std::vector<std::uint32_t> len = {2, 2, 2};
  auto flits = run_saturated(wfq, len, 9000);
  const double total =
      static_cast<double>(flits[0] + flits[1] + flits[2]);
  EXPECT_NEAR(static_cast<double>(flits[0]) / total, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(flits[1]) / total, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(flits[2]) / total, 0.2, 0.02);
}

TEST(WfqTest, VirtualTimeMonotone) {
  WfqArbiter wfq(2, {1.0, 1.0});
  double last = 0.0;
  for (int g = 0; g < 100; ++g) {
    const auto reqs = all_requesting(2, 3);
    const InputId w = wfq.pick(reqs, 0);
    wfq.on_grant(w, 3, 0);
    ASSERT_GE(wfq.virtual_time(), last);
    last = wfq.virtual_time();
  }
}

// ------------------------------------------------------- VirtualClock ----

TEST(VirtualClockTest, SmallestClockWins) {
  VirtualClockArbiter vc(3, {10.0, 20.0, 40.0});
  const auto reqs = all_requesting(3);
  // All clocks 0: tie -> lowest index.
  EXPECT_EQ(vc.pick(reqs, 0), 0u);
  vc.on_grant(0, 1, 0);
  EXPECT_DOUBLE_EQ(vc.aux_vc(0), 10.0);
  EXPECT_EQ(vc.pick(reqs, 0), 1u);
  vc.on_grant(1, 1, 0);
  EXPECT_EQ(vc.pick(reqs, 0), 2u);
  vc.on_grant(2, 1, 0);
  // Now clocks are 10/20/40: input 0 wins again.
  EXPECT_EQ(vc.pick(reqs, 1), 0u);
}

TEST(VirtualClockTest, SharesProportionalToRates) {
  // Vticks for rates 0.5 / 0.25 / 0.25 with 1-flit packets.
  VirtualClockArbiter vc(3, {2.0, 4.0, 4.0});
  std::vector<std::uint32_t> len = {1, 1, 1};
  auto flits = run_saturated(vc, len, 8000);
  const double total =
      static_cast<double>(flits[0] + flits[1] + flits[2]);
  EXPECT_NEAR(static_cast<double>(flits[0]) / total, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(flits[1]) / total, 0.25, 0.02);
}

TEST(VirtualClockTest, AntiBurstClampPreventsPriorityBanking) {
  VirtualClockArbiter vc(2, {2.0, 2.0});
  // Input 0 transmits steadily while input 1 is idle until cycle 1000.
  Cycle now = 0;
  for (int g = 0; g < 100; ++g) {
    vc.on_grant(0, 1, now);
    now += 2;
  }
  // Without the max(auxVC, now) clamp input 1 (clock 0) would win every
  // arbitration until its clock caught up ~200 cycles of virtual time; with
  // the clamp both are at `now` and must interleave.
  std::vector<std::uint64_t> wins(2, 0);
  for (int g = 0; g < 100; ++g) {
    const auto reqs = all_requesting(2);
    const InputId w = vc.pick(reqs, now);
    vc.on_grant(w, 1, now);
    ++wins[w];
    now += 2;
  }
  EXPECT_NEAR(static_cast<double>(wins[0]), 50.0, 2.0);
  EXPECT_NEAR(static_cast<double>(wins[1]), 50.0, 2.0);
}

// --------------------------------------------------------- MultiLevel ----

TEST(MultiLevelTest, HighestLevelWins) {
  MultiLevelArbiter ml(4, 4);
  std::vector<Request> reqs = {
      {0, 1, 0, 0}, {1, 1, 0, 2}, {2, 1, 0, 3}, {3, 1, 0, 3}};
  EXPECT_EQ(ml.pick(reqs, 0), 2u);  // level 3, LRG prefers lower index
  ml.on_grant(2, 1, 0);
  EXPECT_EQ(ml.pick(reqs, 0), 3u);  // LRG rotated within level 3
}

TEST(MultiLevelTest, FixedPriorityStarvesLowerLevels) {
  // The §2.2 critique of [14]: persistent high-level traffic starves the
  // lower levels entirely.
  MultiLevelArbiter ml(2, 4);
  std::vector<Request> reqs = {{0, 1, 0, 3}, {1, 1, 0, 1}};
  for (int g = 0; g < 100; ++g) {
    const InputId w = ml.pick(reqs, 0);
    EXPECT_EQ(w, 0u);
    ml.on_grant(w, 1, 0);
  }
}

TEST(MultiLevelTest, EqualLevelsDegradeToLrg) {
  MultiLevelArbiter ml(4, 4);
  std::vector<Request> reqs = {
      {0, 1, 0, 2}, {1, 1, 0, 2}, {2, 1, 0, 2}, {3, 1, 0, 2}};
  std::vector<InputId> order;
  for (int g = 0; g < 4; ++g) {
    const InputId w = ml.pick(reqs, 0);
    ml.on_grant(w, 1, 0);
    order.push_back(w);
  }
  EXPECT_EQ(order, (std::vector<InputId>{0, 1, 2, 3}));
}

TEST(MultiLevelTest, NoBandwidthControlWithinLevel) {
  // Two same-level inputs share evenly regardless of any intended split —
  // the first §2.2 difference ("inputs ... could not control how much
  // bandwidth each priority level receives").
  MultiLevelArbiter ml(2, 4);
  std::vector<Request> reqs = {{0, 1, 0, 2}, {1, 1, 0, 2}};
  std::uint64_t wins[2] = {0, 0};
  for (int g = 0; g < 1000; ++g) {
    const InputId w = ml.pick(reqs, 0);
    ml.on_grant(w, 1, 0);
    ++wins[w];
  }
  EXPECT_EQ(wins[0], wins[1]);
}

// ---------------------------------------------------------------- TDM ----

TEST(TdmTest, SharesToTableApportionsSlots) {
  const auto table =
      TdmArbiter::shares_to_table(4, {0.5, 0.25, 0.125, 0.125}, 16);
  ASSERT_EQ(table.size(), 16u);
  std::uint32_t counts[4] = {};
  for (InputId owner : table) {
    ASSERT_LT(owner, 4u);
    ++counts[owner];
  }
  EXPECT_EQ(counts[0], 8u);
  EXPECT_EQ(counts[1], 4u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[3], 2u);
}

TEST(TdmTest, GrantsOnlyTheSlotOwnerAtSlotBoundaries) {
  TdmArbiter tdm(2, {0, 0, 1, 0}, /*slot_cycles=*/4);
  const auto reqs = all_requesting(2);
  EXPECT_EQ(tdm.pick(reqs, 0), 0u);        // slot 0 -> input 0
  EXPECT_EQ(tdm.pick(reqs, 2), kNoPort);   // mid-slot: no grant
  EXPECT_EQ(tdm.pick(reqs, 4), 0u);        // slot 1 -> input 0
  EXPECT_EQ(tdm.pick(reqs, 8), 1u);        // slot 2 -> input 1
  EXPECT_EQ(tdm.pick(reqs, 16), 0u);       // wraps to slot 0
}

TEST(TdmTest, IdleOwnerWastesTheWholeSlot) {
  // §2.2: "If the source has no packets to send, that time slot is wasted."
  TdmArbiter tdm(2, {0, 1}, 4);
  std::vector<Request> only1 = {{1, 1, 0}};
  for (Cycle c = 0; c < 4; ++c) {
    EXPECT_EQ(tdm.pick(only1, c), kNoPort);  // input 0's slot, fully wasted
  }
  EXPECT_EQ(tdm.pick(only1, 4), 1u);
}

TEST(TdmTest, UnallocatedSlotIsAlwaysWasted) {
  TdmArbiter tdm(2, {kNoPort, 0}, 2);
  const auto reqs = all_requesting(2);
  EXPECT_EQ(tdm.pick(reqs, 0), kNoPort);
  EXPECT_EQ(tdm.pick(reqs, 2), 0u);
}

TEST(TdmTest, SaturatedSharesMatchTable) {
  auto table = TdmArbiter::shares_to_table(3, {0.5, 0.3, 0.2}, 20);
  TdmArbiter tdm(3, std::move(table), /*slot_cycles=*/2);
  std::uint64_t wins[3] = {};
  const auto reqs = all_requesting(3);
  for (Cycle now = 0; now < 4000; now += 2) {
    const InputId w = tdm.pick(reqs, now);
    ASSERT_NE(w, kNoPort);
    tdm.on_grant(w, 1, now);
    ++wins[w];
  }
  EXPECT_NEAR(static_cast<double>(wins[0]) / 2000.0, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(wins[1]) / 2000.0, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(wins[2]) / 2000.0, 0.2, 0.01);
}

// ---------------------------------------------------------------- PVC ----

TEST(PvcTest, LevelTracksFrameConsumption) {
  // Share 0.5 of a 512-cycle frame = 256-flit budget, 8 levels -> one level
  // per 32 consumed flits.
  PvcArbiter pvc(2, {0.5, 0.5}, 512, 8);
  EXPECT_EQ(pvc.level(0, 0), 0u);
  pvc.on_grant(0, 32, 0);
  EXPECT_EQ(pvc.level(0, 0), 1u);
  pvc.on_grant(0, 96, 0);
  EXPECT_EQ(pvc.level(0, 0), 4u);
  // Over-consumption clamps at the top level.
  pvc.on_grant(0, 10000, 0);
  EXPECT_EQ(pvc.level(0, 0), 7u);
  // Untouched flow stays at 0.
  EXPECT_EQ(pvc.level(1, 0), 0u);
}

TEST(PvcTest, FrameRolloverResetsConsumption) {
  PvcArbiter pvc(2, {0.5, 0.5}, 128, 8);
  pvc.on_grant(0, 64, 0);
  ASSERT_GT(pvc.level(0, 0), 0u);
  EXPECT_EQ(pvc.level(0, 128), 0u);  // new frame
}

TEST(PvcTest, LowerConsumptionWins) {
  PvcArbiter pvc(3, {1.0, 1.0, 1.0}, 512, 8);
  pvc.on_grant(0, 100, 0);
  pvc.on_grant(1, 50, 0);
  const auto reqs = all_requesting(3);
  EXPECT_EQ(pvc.pick(reqs, 0), 2u);  // never served this frame
}

TEST(PvcTest, SharesProportionalUnderSaturation) {
  PvcArbiter pvc(2, {0.75, 0.25}, 512, 16);
  std::vector<std::uint32_t> len = {4, 4};
  auto flits = run_saturated(pvc, len, 8000);
  const double total = static_cast<double>(flits[0] + flits[1]);
  EXPECT_NEAR(static_cast<double>(flits[0]) / total, 0.75, 0.03);
}

// ------------------------------------------------------------ Factory ----

TEST(FactoryTest, NamesRoundTrip) {
  for (Kind k : {Kind::Lrg, Kind::RoundRobin, Kind::FixedPriority, Kind::Age,
                 Kind::Wrr, Kind::Dwrr, Kind::Wfq, Kind::VirtualClock}) {
    EXPECT_EQ(parse_kind(kind_name(k)), k);
  }
}

TEST(FactoryTest, BuildsEveryKind) {
  const std::vector<double> rates = {0.4, 0.2, 0.2, 0.2};
  for (Kind k : {Kind::Lrg, Kind::RoundRobin, Kind::FixedPriority, Kind::Age,
                 Kind::Wrr, Kind::Dwrr, Kind::Wfq, Kind::VirtualClock}) {
    auto arb = make_arbiter(k, 4, rates, 8);
    ASSERT_NE(arb, nullptr);
    EXPECT_EQ(arb->radix(), 4u);
    const auto reqs = all_requesting(4, 8);
    const InputId w = arb->pick(reqs, 0);
    ASSERT_NE(w, kNoPort);
    arb->on_grant(w, 8, 0);
  }
}

TEST(FactoryTest, VirtualClockVticksFromRates) {
  auto arb = make_arbiter(Kind::VirtualClock, 2, {0.5, 0.25}, 8);
  auto* vc = dynamic_cast<VirtualClockArbiter*>(arb.get());
  ASSERT_NE(vc, nullptr);
  vc->on_grant(0, 8, 0);
  vc->on_grant(1, 8, 0);
  EXPECT_DOUBLE_EQ(vc->aux_vc(0), 18.0);  // (8+1) / 0.5
  EXPECT_DOUBLE_EQ(vc->aux_vc(1), 36.0);  // (8+1) / 0.25
}

}  // namespace
}  // namespace ssq::arb
