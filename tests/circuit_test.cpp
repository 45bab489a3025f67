// Tests for src/circuit: bus bits, lane layout, the Fig. 1(b)/Fig. 3
// discharge cells, and the §4.1 verification — circuit decisions equal the
// golden reference for all thermometer-code combinations and valid LRG
// states (exhaustive for small configurations, randomized for radix 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "arb/lrg.hpp"
#include "circuit/bus_bits.hpp"
#include "circuit/circuit_arbiter.hpp"
#include "circuit/discharge.hpp"
#include "circuit/lane_layout.hpp"
#include "circuit/sense_mux.hpp"
#include "sim/rng.hpp"

namespace ssq::circuit {
namespace {

// ------------------------------------------------------------ BusBits ----

TEST(BusBitsTest, SetGetClear) {
  BusBits b(128);
  EXPECT_FALSE(b.get(0));
  b.set(0);
  b.set(127);
  EXPECT_TRUE(b.get(0));
  EXPECT_TRUE(b.get(127));
  EXPECT_EQ(b.popcount(), 2u);
  b.clear(0);
  EXPECT_FALSE(b.get(0));
  b.clear_all();
  EXPECT_EQ(b.popcount(), 0u);
}

TEST(BusBitsTest, SetRangeCrossesWords) {
  BusBits b(128);
  b.set_range(60, 0xFFULL, 8);  // spans the word boundary at 64
  for (std::uint32_t i = 60; i < 68; ++i) EXPECT_TRUE(b.get(i));
  EXPECT_FALSE(b.get(59));
  EXPECT_FALSE(b.get(68));
}

TEST(BusBitsTest, SetRangeEqualsBitByBitOnEveryOffsetAndCount) {
  // Width 200 is not a multiple of 64, so the last word is partial. Each
  // write ORs into wires already set and must ignore bits above `count`.
  constexpr std::uint32_t kWidth = 200;
  Rng rng(5);
  for (std::uint32_t offset = 0; offset < kWidth; ++offset) {
    for (std::uint32_t count = 1; count <= 64 && offset + count <= kWidth;
         ++count) {
      BusBits words(kWidth);
      BusBits bitwise(kWidth);
      for (int k = 0; k < 8; ++k) {
        const auto w = static_cast<std::uint32_t>(rng.below(kWidth));
        words.set(w);
        bitwise.set(w);
      }
      const std::uint64_t bits = rng();
      words.set_range(offset, bits, count);
      for (std::uint32_t k = 0; k < count; ++k) {
        if ((bits >> k) & 1ULL) bitwise.set(offset + k);
      }
      ASSERT_EQ(words, bitwise) << "offset " << offset << " count " << count;
    }
  }
}

TEST(BusBitsTest, WiredOr) {
  BusBits a(64), b(64);
  a.set(1);
  b.set(2);
  a |= b;
  EXPECT_TRUE(a.get(1));
  EXPECT_TRUE(a.get(2));
}

// --------------------------------------------------------- LaneLayout ----

TEST(LaneLayoutTest, LaneArithmetic) {
  LaneLayout l{.radix = 8, .bus_width = 128, .gb_lanes = 8,
               .has_gl_lane = true, .has_be_lane = true};
  l.validate();
  EXPECT_EQ(l.num_lanes(), 16u);
  EXPECT_EQ(l.lanes_used(), 10u);
  EXPECT_EQ(l.gl_lane(), 8u);
  EXPECT_EQ(l.be_lane(), 9u);
  EXPECT_EQ(l.level_bits(), 3u);
  // Fig. 1: input 2 senses wires 2, 10, 18, ..., 58 on a radix-8 bus.
  for (std::uint32_t lane = 0; lane < 8; ++lane) {
    EXPECT_EQ(l.wire(lane, 2), lane * 8 + 2);
  }
}

TEST(LaneLayoutTest, Fig4ConfigurationUsesAllLanesForGb) {
  // 128-bit bus, radix 8, GB only: 16 lanes = 4 significant auxVC bits.
  LaneLayout l{.radix = 8, .bus_width = 128, .gb_lanes = 16,
               .has_gl_lane = false, .has_be_lane = false};
  l.validate();
  EXPECT_EQ(l.level_bits(), 4u);
  EXPECT_EQ(l.lanes_used(), 16u);
}

// ---------------------------------------------------- Discharge cells ----

TEST(DischargeTest, Fig1bTruthTable) {
  // Input at level 3 of 8 lanes, LRG row 0b0110 (beats inputs 1 and 2).
  core::ThermometerCode code(8, 3);
  const std::uint64_t lrg_row = 0b0110;
  // Lanes above the level (T_i == 0): discharge everything.
  for (std::uint32_t lane = 4; lane < 8; ++lane) {
    EXPECT_EQ(gb_lane_decision(code, lane, lrg_row, 4).bits, 0b1111u)
        << "lane " << lane;
  }
  // Own lane (T_i == 1, T_{i+1} == 0): LRG row.
  EXPECT_EQ(gb_lane_decision(code, 3, lrg_row, 4).bits, 0b0110u);
  // Lanes below (T_{i+1} == 1): nothing.
  for (std::uint32_t lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(gb_lane_decision(code, lane, lrg_row, 4).bits, 0u)
        << "lane " << lane;
  }
}

TEST(DischargeTest, TopLevelDischargesOnlyItsLrgRow) {
  core::ThermometerCode code(8, 7);  // all-ones thermometer (Fig. 1 In7)
  for (std::uint32_t lane = 0; lane < 7; ++lane) {
    EXPECT_EQ(gb_lane_decision(code, lane, 0b1, 8).bits, 0u);
  }
  EXPECT_EQ(gb_lane_decision(code, 7, 0b1, 8).bits, 0b1u);
}

TEST(DischargeTest, GlRequestDischargesAllGbLanes) {
  LaneLayout l{.radix = 4, .bus_width = 32, .gb_lanes = 4,
               .has_gl_lane = true, .has_be_lane = true};
  l.validate();
  core::ThermometerCode code(4, 0);
  const BusBits bus = discharge_vector(l, RequestKind::Gl, code, 0b0010);
  // All GB-lane wires discharged (Fig. 3).
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    for (InputId n = 0; n < 4; ++n) {
      EXPECT_TRUE(bus.get(l.wire(lane, n)));
    }
  }
  // GL lane: only the LRG row bit.
  EXPECT_FALSE(bus.get(l.wire(l.gl_lane(), 0)));
  EXPECT_TRUE(bus.get(l.wire(l.gl_lane(), 1)));
  EXPECT_FALSE(bus.get(l.wire(l.gl_lane(), 2)));
  // BE lane fully discharged.
  for (InputId n = 0; n < 4; ++n) {
    EXPECT_TRUE(bus.get(l.wire(l.be_lane(), n)));
  }
}

TEST(DischargeTest, BeRequestTouchesOnlyBeLane) {
  LaneLayout l{.radix = 4, .bus_width = 32, .gb_lanes = 4,
               .has_gl_lane = true, .has_be_lane = true};
  core::ThermometerCode code(4, 0);
  const BusBits bus =
      discharge_vector(l, RequestKind::BestEffort, code, 0b1100);
  for (std::uint32_t lane = 0; lane <= l.gl_lane(); ++lane) {
    for (InputId n = 0; n < 4; ++n) {
      EXPECT_FALSE(bus.get(l.wire(lane, n)));
    }
  }
  EXPECT_FALSE(bus.get(l.wire(l.be_lane(), 0)));
  EXPECT_FALSE(bus.get(l.wire(l.be_lane(), 1)));
  EXPECT_TRUE(bus.get(l.wire(l.be_lane(), 2)));
  EXPECT_TRUE(bus.get(l.wire(l.be_lane(), 3)));
}

TEST(DischargeTest, SenseWireSelection) {
  LaneLayout l{.radix = 8, .bus_width = 128, .gb_lanes = 8,
               .has_gl_lane = true, .has_be_lane = true};
  core::ThermometerCode code(8, 6);
  EXPECT_EQ(sense_wire(l, RequestKind::Gb, code, 0), 48u);  // Fig. 1: In0
  EXPECT_EQ(sense_wire(l, RequestKind::Gl, code, 3), l.wire(8, 3));
  EXPECT_EQ(sense_wire(l, RequestKind::BestEffort, code, 3), l.wire(9, 3));
}

// ----------------------------------------------------------- SenseMux ----

TEST(SenseMuxTest, DepthAndCount) {
  EXPECT_EQ(SenseMux(1).depth(), 0u);
  EXPECT_EQ(SenseMux(8).depth(), 3u);
  EXPECT_EQ(SenseMux(16).depth(), 4u);
  EXPECT_EQ(SenseMux(16).mux_count(), 15u);
}

TEST(SenseMuxTest, TreeSelectsTheSameWireAsDirectLookup) {
  LaneLayout l{.radix = 8, .bus_width = 64, .gb_lanes = 8,
               .has_gl_lane = false, .has_be_lane = false};
  l.validate();
  SenseMux mux(8);
  Rng rng(0x5e);
  for (int trial = 0; trial < 2000; ++trial) {
    BusBits bus(64);
    for (std::uint32_t wire = 0; wire < 64; ++wire) {
      if (rng.bernoulli(0.5)) bus.set(wire);
    }
    const auto n = static_cast<InputId>(rng.below(8));
    const auto level = static_cast<std::uint32_t>(rng.below(8));
    const bool direct = !bus.get(l.wire(level, n));
    ASSERT_EQ(mux.sense(bus, l, n, level), direct)
        << "n=" << n << " level=" << level;
  }
}

// ------------------------------------------------- Fig. 1 worked example ----

TEST(CircuitArbiterTest, PaperFig1Example) {
  // Fig. 1(a): In0..In7 levels from the 3 MSBs of their auxVC counters;
  // inputs 0, 1, 2, 5, 6 request output M. Levels: In0=6, In1=6, In2=4,
  // In5=4, In6=4. The paper's stated outcome: In0 and In1 lose to the
  // level-4 inputs; among In2/In5/In6, LRG picks In2 (sensing wire 34).
  LaneLayout l{.radix = 8, .bus_width = 64, .gb_lanes = 8,
               .has_gl_lane = false, .has_be_lane = false};
  arb::LrgArbiter lrg(8);
  // The paper's example has In1 with LRG priority over In0 (In1 discharges
  // wire 48), and In2 beating In5/In6 in lane 4. The initial index order
  // 0<1<...<7 gives In0 priority over In1; grant In0 once so In1 beats it.
  lrg.on_grant(0, 1, 0);
  CircuitArbiter circuit(l);
  std::vector<CrosspointRequest> reqs = {
      {0, RequestKind::Gb, 6}, {1, RequestKind::Gb, 6},
      {2, RequestKind::Gb, 4}, {5, RequestKind::Gb, 4},
      {6, RequestKind::Gb, 4},
  };
  const auto trace = circuit.arbitrate(reqs, lrg);
  EXPECT_EQ(trace.winner, 2u);
  // In2 senses wire 34 = lane 4 * 8 + 2 and it is still charged.
  EXPECT_EQ(trace.sensed_wire[2], 34u);
  EXPECT_TRUE(trace.sensed_charged[2]);
  // In0 senses wire 48, discharged by the level-4 inputs (and In1's LRG bit).
  EXPECT_EQ(trace.sensed_wire[0], 48u);
  EXPECT_FALSE(trace.sensed_charged[0]);
}

// --------------------------------------------- §4.1-style verification ----

/// Builds an LRG matrix from a priority permutation (perm[0] = top rank).
std::vector<std::uint64_t> matrix_from_permutation(
    const std::vector<InputId>& perm) {
  std::vector<std::uint64_t> rows(perm.size(), 0);
  for (std::size_t a = 0; a < perm.size(); ++a) {
    for (std::size_t b = a + 1; b < perm.size(); ++b) {
      rows[perm[a]] |= 1ULL << perm[b];
    }
  }
  return rows;
}

/// Exhaustive: every GB-level combination x every LRG total order x every
/// request subset, for a small configuration (the paper: "We tested this
/// program with all input combinations of thermometer code vectors and
/// valid LRG states").
TEST(CircuitVerificationTest, ExhaustiveRadix3GbOnly) {
  constexpr std::uint32_t kRadix = 3;
  constexpr std::uint32_t kLanes = 4;
  LaneLayout l{.radix = kRadix, .bus_width = kRadix * kLanes,
               .gb_lanes = kLanes, .has_gl_lane = false, .has_be_lane = false};
  CircuitArbiter circuit(l);
  arb::LrgArbiter lrg(kRadix);

  std::vector<InputId> perm = {0, 1, 2};
  std::sort(perm.begin(), perm.end());
  long cases = 0;
  do {
    lrg.set_matrix(matrix_from_permutation(perm));
    for (std::uint32_t mask = 1; mask < (1u << kRadix); ++mask) {
      // Enumerate all level combinations for the requesting subset.
      std::vector<InputId> members;
      for (InputId i = 0; i < kRadix; ++i) {
        if ((mask >> i) & 1u) members.push_back(i);
      }
      std::vector<std::uint32_t> levels(members.size(), 0);
      while (true) {
        std::vector<CrosspointRequest> reqs;
        for (std::size_t k = 0; k < members.size(); ++k) {
          reqs.push_back({members[k], RequestKind::Gb, levels[k]});
        }
        const auto trace = circuit.arbitrate(reqs, lrg);
        const InputId expect = reference_decision(reqs, lrg, l);
        ASSERT_EQ(trace.winner, expect);
        ++cases;
        // Odometer over levels.
        std::size_t d = 0;
        while (d < levels.size() && ++levels[d] == kLanes) {
          levels[d] = 0;
          ++d;
        }
        if (d == levels.size()) break;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  // 3! orders x (subsets with their level spaces) — make sure we really
  // swept a nontrivial space.
  EXPECT_GT(cases, 500);
}

/// Exhaustive with all three classes at radix 2 x 2 GB lanes.
TEST(CircuitVerificationTest, ExhaustiveRadix2AllClasses) {
  constexpr std::uint32_t kRadix = 2;
  LaneLayout l{.radix = kRadix, .bus_width = 8, .gb_lanes = 2,
               .has_gl_lane = true, .has_be_lane = true};
  CircuitArbiter circuit(l);
  arb::LrgArbiter lrg(kRadix);

  const RequestKind kinds[] = {RequestKind::None, RequestKind::BestEffort,
                               RequestKind::Gb, RequestKind::Gl};
  for (int order = 0; order < 2; ++order) {
    lrg.set_matrix(matrix_from_permutation(
        order == 0 ? std::vector<InputId>{0, 1} : std::vector<InputId>{1, 0}));
    for (RequestKind k0 : kinds) {
      for (RequestKind k1 : kinds) {
        if (k0 == RequestKind::None && k1 == RequestKind::None) continue;
        for (std::uint32_t l0 = 0; l0 < 2; ++l0) {
          for (std::uint32_t l1 = 0; l1 < 2; ++l1) {
            std::vector<CrosspointRequest> reqs;
            if (k0 != RequestKind::None) reqs.push_back({0, k0, l0});
            if (k1 != RequestKind::None) reqs.push_back({1, k1, l1});
            const auto trace = circuit.arbitrate(reqs, lrg);
            ASSERT_EQ(trace.winner, reference_decision(reqs, lrg, l));
          }
        }
      }
    }
  }
}

/// Randomized at radix 8 with all classes and 8 GB lanes.
TEST(CircuitVerificationTest, RandomizedRadix8) {
  LaneLayout l{.radix = 8, .bus_width = 128, .gb_lanes = 8,
               .has_gl_lane = true, .has_be_lane = true};
  CircuitArbiter circuit(l);
  arb::LrgArbiter lrg(8);
  Rng rng(2014);

  for (int trial = 0; trial < 20000; ++trial) {
    // Random valid LRG state via random grant.
    lrg.on_grant(static_cast<InputId>(rng.below(8)), 1, 0);
    std::vector<CrosspointRequest> reqs;
    for (InputId i = 0; i < 8; ++i) {
      switch (rng.below(4)) {
        case 0: break;  // no request
        case 1: reqs.push_back({i, RequestKind::BestEffort, 0}); break;
        case 2:
          reqs.push_back(
              {i, RequestKind::Gb, static_cast<std::uint32_t>(rng.below(8))});
          break;
        case 3: reqs.push_back({i, RequestKind::Gl, 0}); break;
      }
    }
    if (reqs.empty()) continue;
    const auto trace = circuit.arbitrate(reqs, lrg);
    ASSERT_EQ(trace.winner, reference_decision(reqs, lrg, l));
  }
}

/// The single-winner invariant holds at radix 64 / 512-bit — the largest
/// configuration in the paper (Table 1).
TEST(CircuitVerificationTest, Radix64LargestConfiguration) {
  LaneLayout l{.radix = 64, .bus_width = 512, .gb_lanes = 4,
               .has_gl_lane = true, .has_be_lane = true};
  l.validate();
  CircuitArbiter circuit(l);
  arb::LrgArbiter lrg(64);
  Rng rng(64);
  for (int trial = 0; trial < 500; ++trial) {
    lrg.on_grant(static_cast<InputId>(rng.below(64)), 1, 0);
    std::vector<CrosspointRequest> reqs;
    for (InputId i = 0; i < 64; ++i) {
      if (rng.bernoulli(0.5)) {
        reqs.push_back(
            {i, RequestKind::Gb, static_cast<std::uint32_t>(rng.below(4))});
      }
    }
    if (reqs.empty()) continue;
    const auto trace = circuit.arbitrate(reqs, lrg);
    ASSERT_EQ(trace.winner, reference_decision(reqs, lrg, l));
  }
}

}  // namespace
}  // namespace ssq::circuit
