// Tests for src/core: SSVC parameters, thermometer codes, auxVC counters,
// the counter-management policies, the GL tracker, and the three-class
// OutputQosArbiter semantics.
#include <gtest/gtest.h>

#include <vector>

#include "core/allocation.hpp"
#include "core/aux_vc.hpp"
#include "core/gl_tracker.hpp"
#include "core/output_arbiter.hpp"
#include "core/params.hpp"
#include "core/thermometer.hpp"

namespace ssq::core {
namespace {

SsvcParams small_params(CounterPolicy policy = CounterPolicy::SubtractRealClock) {
  SsvcParams p;
  p.level_bits = 3;   // 8 GB levels (Fig. 1)
  p.lsb_bits = 4;     // small epoch so wraps are easy to exercise
  p.vtick_bits = 8;
  p.vtick_shift = 0;
  p.policy = policy;
  return p;
}

// ------------------------------------------------------------- Params ----

TEST(ParamsTest, DerivedQuantities) {
  SsvcParams p;  // defaults: 3+8 bits — the Table 1 configuration
  EXPECT_EQ(p.gb_levels(), 8u);
  EXPECT_EQ(p.aux_vc_cap(), (1ULL << 11) - 1);
  EXPECT_EQ(p.epoch_cycles(), 256u);
}

TEST(ParamsTest, IdealVtickIsInterPacketTime) {
  // Rate 0.4 of the channel, 8-flit packets: each packet occupies 8 transfer
  // cycles + 1 arbitration cycle -> one packet per 22.5 cycles.
  EXPECT_DOUBLE_EQ(ideal_vtick(0.4, 8), 22.5);
  EXPECT_DOUBLE_EQ(ideal_vtick(0.05, 8), 180.0);
  EXPECT_DOUBLE_EQ(ideal_vtick(1.0, 1), 2.0);
}

TEST(ParamsTest, QuantizeRoundsAndSaturates) {
  SsvcParams p = small_params();
  EXPECT_EQ(quantize_vtick(p, 20.0), 20u);
  EXPECT_EQ(quantize_vtick(p, 20.4), 20u);
  EXPECT_EQ(quantize_vtick(p, 20.6), 21u);
  EXPECT_EQ(quantize_vtick(p, 0.2), 1u);      // floor at 1
  EXPECT_EQ(quantize_vtick(p, 1e9), 255u);    // register saturates
}

TEST(ParamsTest, QuantizeWithShiftExtendsRange) {
  SsvcParams p = small_params();
  p.vtick_shift = 2;  // values are multiples of 4 cycles
  EXPECT_EQ(quantize_vtick(p, 800.0), 800u);
  EXPECT_EQ(quantize_vtick(p, 21.0), 20u);  // rounds to nearest multiple of 4
  EXPECT_EQ(p.max_vtick_cycles(), 255u << 2);
}

// -------------------------------------------------------- Thermometer ----

TEST(ThermometerTest, EncodingMatchesFig1) {
  // Fig. 1(a): level 6 -> [1,1,1,1,1,1,1,0]; level 0 -> [1,0,...];
  // level 7 -> all ones.
  ThermometerCode t6(8, 6);
  EXPECT_EQ(t6.bits(), 0b0111'1111u);
  ThermometerCode t0(8, 0);
  EXPECT_EQ(t0.bits(), 0b0000'0001u);
  ThermometerCode t7(8, 7);
  EXPECT_EQ(t7.bits(), 0b1111'1111u);
}

TEST(ThermometerTest, BitQueries) {
  ThermometerCode t(8, 4);
  for (std::uint32_t i = 0; i <= 4; ++i) EXPECT_TRUE(t.bit(i));
  for (std::uint32_t i = 5; i < 8; ++i) EXPECT_FALSE(t.bit(i));
}

TEST(ThermometerTest, ShiftUpSaturatesAtTopLane) {
  ThermometerCode t(4, 2);
  t.shift_up();
  EXPECT_EQ(t.level(), 3u);
  t.shift_up();
  EXPECT_EQ(t.level(), 3u);  // saturates
}

TEST(ThermometerTest, ShiftDownFloorsAtZero) {
  ThermometerCode t(4, 1);
  t.shift_down();
  EXPECT_EQ(t.level(), 0u);
  t.shift_down();
  EXPECT_EQ(t.level(), 0u);
}

TEST(ThermometerTest, HalveAndReset) {
  ThermometerCode t(8, 7);
  t.halve();
  EXPECT_EQ(t.level(), 3u);
  t.halve();
  EXPECT_EQ(t.level(), 1u);
  t.reset();
  EXPECT_EQ(t.level(), 0u);
}

TEST(ThermometerTest, SetLevelClampsToWidth) {
  ThermometerCode t(4);
  t.set_level(100);
  EXPECT_EQ(t.level(), 3u);
}

// -------------------------------------------------------------- AuxVc ----

TEST(AuxVcTest, GrantAppliesMaxThenVtick) {
  AuxVc vc(small_params(), 10);
  // value 0, rt 5: max(0,5)+10 = 15.
  EXPECT_FALSE(vc.on_grant(5));
  EXPECT_EQ(vc.value(), 15u);
  // value 15, rt 3 (behind): max(15,3)+10 = 25.
  EXPECT_FALSE(vc.on_grant(3));
  EXPECT_EQ(vc.value(), 25u);
}

TEST(AuxVcTest, LevelFromMsbs) {
  SsvcParams p = small_params();  // lsb_bits 4 -> level = value >> 4
  AuxVc vc(p, 16);
  EXPECT_EQ(vc.level(), 0u);
  vc.on_grant(0);  // value 16
  EXPECT_EQ(vc.level(), 1u);
  vc.on_grant(0);  // value 32
  EXPECT_EQ(vc.level(), 2u);
  EXPECT_EQ(vc.code().level(), vc.level());
}

TEST(AuxVcTest, SaturationReportsAndClamps) {
  SsvcParams p = small_params();
  AuxVc vc(p, 100);
  bool saturated = false;
  for (int g = 0; g < 10 && !saturated; ++g) saturated = vc.on_grant(0);
  EXPECT_TRUE(saturated);
  EXPECT_EQ(vc.value(), p.aux_vc_cap());
  EXPECT_EQ(vc.level(), p.gb_levels() - 1);
}

TEST(AuxVcTest, EpochWrapSubtractsOneMsb) {
  SsvcParams p = small_params();
  AuxVc vc(p, 40);
  vc.on_grant(0);  // value 40, level 2
  EXPECT_EQ(vc.level(), 2u);
  vc.epoch_wrap();  // value 24, level 1
  EXPECT_EQ(vc.value(), 24u);
  EXPECT_EQ(vc.level(), 1u);
  vc.epoch_wrap();  // value 8, level 0
  vc.epoch_wrap();  // floor at 0
  EXPECT_EQ(vc.value(), 0u);
  EXPECT_EQ(vc.level(), 0u);
}

TEST(AuxVcTest, HalveHalvesValueAndCode) {
  SsvcParams p = small_params(CounterPolicy::Halve);
  AuxVc vc(p, 50);
  vc.on_grant(0);  // 50, level 3
  EXPECT_EQ(vc.level(), 3u);
  vc.halve();
  EXPECT_EQ(vc.value(), 25u);
  EXPECT_EQ(vc.level(), 1u);
  EXPECT_EQ(vc.code().level(), 1u);
}

TEST(AuxVcTest, ResetClears) {
  AuxVc vc(small_params(CounterPolicy::Reset), 50);
  vc.on_grant(7);
  vc.reset();
  EXPECT_EQ(vc.value(), 0u);
  EXPECT_EQ(vc.level(), 0u);
}

TEST(AuxVcTest, PolicyNoneNeverSaturatesInPractice) {
  AuxVc vc(small_params(CounterPolicy::None), 1000);
  for (int g = 0; g < 100000; ++g) ASSERT_FALSE(vc.on_grant(0));
  EXPECT_EQ(vc.level(), small_params().gb_levels() - 1);  // clamped level
}

// ---------------------------------------------------------- GlTracker ----

TEST(GlTrackerTest, DisabledIsAlwaysEligible) {
  GlTracker t(0, 4, GlPolicing::Stall);
  EXPECT_FALSE(t.enabled());
  EXPECT_TRUE(t.eligible(0));
  t.on_grant(0);  // no-op
  EXPECT_EQ(t.clock(), 0u);
}

TEST(GlTrackerTest, CompliantClassStaysEligible) {
  GlTracker t(100, 4, GlPolicing::Stall);  // vtick 100, allowance 4 packets
  Cycle now = 0;
  for (int g = 0; g < 50; ++g) {
    ASSERT_TRUE(t.eligible(now));
    t.on_grant(now);
    now += 100;  // sending exactly at the reserved rate
  }
}

TEST(GlTrackerTest, BurstBeyondAllowanceBecomesIneligible) {
  GlTracker t(100, 4, GlPolicing::Stall);
  // Eligibility is clock <= now + allowance: allowance+1 packets pass.
  for (int g = 0; g < 5; ++g) {
    ASSERT_TRUE(t.eligible(0)) << "packet " << g;
    t.on_grant(0);
  }
  EXPECT_FALSE(t.eligible(0));
  EXPECT_GT(t.overrun(0), 0u);
  // Real time catches up -> eligible again.
  EXPECT_TRUE(t.eligible(100));
}

TEST(GlTrackerTest, PolicingNoneNeverBlocks) {
  GlTracker t(100, 1, GlPolicing::None);
  for (int g = 0; g < 100; ++g) t.on_grant(0);
  EXPECT_TRUE(t.eligible(0));
}

// --------------------------------------------------------- Allocation ----

TEST(AllocationTest, AdmissionControl) {
  auto a = OutputAllocation::none(4);
  EXPECT_TRUE(a.admissible(4));
  a.gb_rate = {0.4, 0.2, 0.2, 0.1};
  a.gl_rate = 0.1;
  EXPECT_TRUE(a.admissible(4));
  EXPECT_DOUBLE_EQ(a.gb_total(), 0.9);
  a.gl_rate = 0.2;  // 1.1 total
  EXPECT_FALSE(a.admissible(4));
  a.gl_rate = 0.0;
  a.gb_rate[0] = -0.1;
  EXPECT_FALSE(a.admissible(4));
  a.gb_rate = {0.5, 0.5};  // wrong size
  EXPECT_FALSE(a.admissible(4));
}

// ----------------------------------------------------- OutputQosArbiter ----

OutputQosArbiter make_gb_arbiter(
    CounterPolicy policy = CounterPolicy::SubtractRealClock) {
  auto alloc = OutputAllocation::none(4);
  alloc.gb_rate = {0.4, 0.3, 0.2, 0.1};
  alloc.gb_packet_len = 1;
  return OutputQosArbiter(4, small_params(policy), alloc);
}

std::vector<ClassRequest> gb_requests(std::uint32_t n,
                                      std::uint32_t length = 1) {
  std::vector<ClassRequest> reqs;
  for (InputId i = 0; i < n; ++i) {
    reqs.push_back({i, TrafficClass::GuaranteedBandwidth, length});
  }
  return reqs;
}

TEST(OutputQosArbiterTest, GbSharesFollowReservations) {
  // 8-flit packets so Vtick quantisation is small (Vticks 23/30/45/90 for
  // rates 0.4/0.3/0.2/0.1). Real time advances 9 cycles per grant (8
  // transfer + 1 arbitration), matching the Vtick calibration, so every
  // flow should receive ~its reserved share of grants.
  auto alloc = OutputAllocation::none(4);
  alloc.gb_rate = {0.4, 0.3, 0.2, 0.1};
  alloc.gb_packet_len = 8;
  OutputQosArbiter arb(4, small_params(), alloc);
  std::vector<std::uint64_t> wins(4, 0);
  Cycle now = 0;
  const auto reqs = gb_requests(4, 8);
  constexpr int kGrants = 20000;
  for (int g = 0; g < kGrants; ++g) {
    arb.advance_to(now);
    const InputId w = arb.pick(reqs, now);
    ASSERT_NE(w, kNoPort);
    EXPECT_EQ(arb.picked_class(), TrafficClass::GuaranteedBandwidth);
    arb.on_grant(w, TrafficClass::GuaranteedBandwidth, 8, now);
    ++wins[w];
    now += 9;
  }
  const double total = kGrants;
  EXPECT_NEAR(static_cast<double>(wins[0]) / total, 0.4, 0.03);
  EXPECT_NEAR(static_cast<double>(wins[1]) / total, 0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(wins[2]) / total, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(wins[3]) / total, 0.1, 0.03);
}

TEST(OutputQosArbiterTest, GlOverridesGbAndBe) {
  auto alloc = OutputAllocation::none(4);
  alloc.gb_rate = {0.5, 0.0, 0.0, 0.0};
  alloc.gl_rate = 0.1;
  OutputQosArbiter arb(4, small_params(), alloc);
  arb.advance_to(0);
  std::vector<ClassRequest> reqs = {
      {0, TrafficClass::GuaranteedBandwidth, 1},
      {1, TrafficClass::BestEffort, 1},
      {2, TrafficClass::GuaranteedLatency, 1},
  };
  const InputId w = arb.pick(reqs, 0);
  EXPECT_EQ(w, 2u);
  EXPECT_EQ(arb.picked_class(), TrafficClass::GuaranteedLatency);
}

TEST(OutputQosArbiterTest, GbBeatsBe) {
  auto arb = make_gb_arbiter();
  arb.advance_to(0);
  std::vector<ClassRequest> reqs = {
      {0, TrafficClass::BestEffort, 1},
      {3, TrafficClass::GuaranteedBandwidth, 1},
  };
  EXPECT_EQ(arb.pick(reqs, 0), 3u);
  EXPECT_EQ(arb.picked_class(), TrafficClass::GuaranteedBandwidth);
}

TEST(OutputQosArbiterTest, BeUsesLrg) {
  auto arb = make_gb_arbiter();
  std::vector<ClassRequest> reqs = {
      {0, TrafficClass::BestEffort, 1},
      {1, TrafficClass::BestEffort, 1},
  };
  arb.advance_to(0);
  const InputId w1 = arb.pick(reqs, 0);
  EXPECT_EQ(w1, 0u);
  arb.on_grant(w1, TrafficClass::BestEffort, 1, 0);
  const InputId w2 = arb.pick(reqs, 0);
  EXPECT_EQ(w2, 1u);  // LRG moved input 0 to the back
}

TEST(OutputQosArbiterTest, StalledGlYieldsNoWinner) {
  auto alloc = OutputAllocation::none(2);
  alloc.gl_rate = 0.05;
  alloc.gl_packet_len = 1;
  OutputQosArbiter arb(2, small_params(), alloc, GlPolicing::Stall,
                       /*gl_allowance_packets=*/2);
  std::vector<ClassRequest> reqs = {{0, TrafficClass::GuaranteedLatency, 1}};
  Cycle now = 0;
  // Exhaust the allowance (eligibility is clock <= now + allowance, so
  // allowance+1 packets fit before the class stalls).
  int granted = 0;
  for (int g = 0; g < 10; ++g) {
    arb.advance_to(now);
    const InputId w = arb.pick(reqs, now);
    if (w == kNoPort) break;
    arb.on_grant(w, TrafficClass::GuaranteedLatency, 1, now);
    ++granted;
  }
  EXPECT_EQ(granted, 3);
  arb.advance_to(now);
  EXPECT_EQ(arb.pick(reqs, now), kNoPort);
  // After the clock catches up the class is serviceable again.
  const Cycle later = arb.gl_tracker().clock();
  arb.advance_to(later);
  EXPECT_NE(arb.pick(reqs, later), kNoPort);
}

TEST(OutputQosArbiterTest, DemotedGlLosesToGb) {
  auto alloc = OutputAllocation::none(2);
  alloc.gb_rate = {0.5, 0.0};
  alloc.gl_rate = 0.05;
  alloc.gl_packet_len = 1;
  OutputQosArbiter arb(2, small_params(), alloc, GlPolicing::Demote,
                       /*gl_allowance_packets=*/1);
  Cycle now = 0;
  std::vector<ClassRequest> gl_only = {{1, TrafficClass::GuaranteedLatency, 1}};
  arb.advance_to(now);
  // Grant GL until the policer marks the class over budget.
  for (int g = 0; g < 10 && arb.gl_tracker().eligible(now); ++g) {
    arb.on_grant(1, TrafficClass::GuaranteedLatency, 1, now);
  }
  ASSERT_FALSE(arb.gl_tracker().eligible(now));
  // Over budget: a GB request now beats the demoted GL request.
  std::vector<ClassRequest> mixed = {
      {0, TrafficClass::GuaranteedBandwidth, 1},
      {1, TrafficClass::GuaranteedLatency, 1},
  };
  const InputId w = arb.pick(mixed, now);
  EXPECT_EQ(w, 0u);
  EXPECT_EQ(arb.picked_class(), TrafficClass::GuaranteedBandwidth);
  // Demoted GL alone still gets service (unlike Stall).
  const InputId w2 = arb.pick(gl_only, now);
  EXPECT_EQ(w2, 1u);
  EXPECT_EQ(arb.picked_class(), TrafficClass::GuaranteedLatency);
}

TEST(OutputQosArbiterTest, LowerLevelAlwaysBeatsHigherLevel) {
  auto arb = make_gb_arbiter();
  Cycle now = 0;
  // Give input 0 many grants so its auxVC level rises.
  arb.advance_to(now);
  for (int g = 0; g < 8; ++g) {
    arb.on_grant(0, TrafficClass::GuaranteedBandwidth, 1, now);
  }
  ASSERT_GT(arb.gb_level(0), arb.gb_level(3));
  const auto reqs = gb_requests(4);
  const InputId w = arb.pick(reqs, now);
  EXPECT_NE(w, 0u);  // the busy flow cannot win against lower levels
}

TEST(OutputQosArbiterTest, EpochWrapLowersLevels) {
  auto arb = make_gb_arbiter();  // lsb_bits 4 -> epoch 16 cycles
  arb.advance_to(0);
  for (int g = 0; g < 12; ++g) {
    arb.on_grant(0, TrafficClass::GuaranteedBandwidth, 1, 0);
  }
  const auto level_before = arb.gb_level(0);
  ASSERT_GT(level_before, 1u);
  arb.advance_to(16);  // one epoch
  EXPECT_EQ(arb.gb_level(0), level_before - 1);
}

TEST(OutputQosArbiterTest, CatchUpWrapsInOneStepAndBumpsOnlyOnChange) {
  auto arb = make_gb_arbiter();  // lsb_bits 4 -> epoch 16 cycles
  arb.advance_to(0);
  for (int g = 0; g < 12; ++g) {
    arb.on_grant(0, TrafficClass::GuaranteedBandwidth, 1, 0);
  }
  const std::uint64_t v0 = arb.aux_vc(0).value();
  ASSERT_GT(v0 >> 4, 2u);
  std::uint64_t version = arb.state_version();
  arb.advance_to(2 * 16 + 5);  // two epochs, caught up at once
  EXPECT_EQ(arb.aux_vc(0).value(), v0 - 2 * 16);
  EXPECT_EQ(arb.gb_level(0), arb.aux_vc(0).code().level());
  EXPECT_EQ(arb.epoch_base(), 2u * 16);
  EXPECT_EQ(arb.epoch_rt(), 5u);
  EXPECT_GT(arb.state_version(), version);
  // A thousand epochs drain the counter; after that wraps change nothing,
  // so the base moves and the version holds.
  arb.advance_to(1000 * 16);
  EXPECT_EQ(arb.aux_vc(0).value(), 0u);
  version = arb.state_version();
  arb.advance_to(5000 * 16 + 3);
  EXPECT_EQ(arb.state_version(), version);
  EXPECT_EQ(arb.epoch_base(), 5000u * 16);
  // A counter upset while it was a clean zero is wrapped again.
  arb.aux_vc_mut(3).fault_flip_value(5);  // value 32: two epochs' worth
  version = arb.state_version();
  arb.advance_to(5001 * 16);
  EXPECT_EQ(arb.aux_vc(3).value(), 16u);
  EXPECT_GT(arb.state_version(), version);
}

TEST(OutputQosArbiterTest, ResetPolicyClearsAllOnSaturation) {
  auto alloc = OutputAllocation::none(2);
  alloc.gb_rate = {0.5, 0.5};
  alloc.gb_packet_len = 1;
  SsvcParams p = small_params(CounterPolicy::Reset);
  OutputQosArbiter arb(2, p, alloc);
  arb.advance_to(0);
  // Drive input 0 to saturation (vtick 2, cap 127 -> 64 grants).
  bool reset_seen = false;
  for (int g = 0; g < 200; ++g) {
    arb.on_grant(0, TrafficClass::GuaranteedBandwidth, 1, 0);
    if (arb.aux_vc(0).value() == 0) {
      reset_seen = true;
      break;
    }
  }
  EXPECT_TRUE(reset_seen);
  EXPECT_EQ(arb.aux_vc(1).value(), 0u);
}

TEST(OutputQosArbiterTest, HalvePolicyCompressesAll) {
  auto alloc = OutputAllocation::none(2);
  alloc.gb_rate = {0.5, 0.25};
  alloc.gb_packet_len = 1;
  SsvcParams p = small_params(CounterPolicy::Halve);
  OutputQosArbiter arb(2, p, alloc);
  arb.advance_to(0);
  // Saturate input 1 (vtick 4). Track that a halving event hits input 0 too.
  arb.on_grant(0, TrafficClass::GuaranteedBandwidth, 1, 0);
  const auto v0_before = arb.aux_vc(0).value();
  ASSERT_GT(v0_before, 0u);
  std::uint64_t prev = 0;
  bool halved = false;
  for (int g = 0; g < 200 && !halved; ++g) {
    arb.on_grant(1, TrafficClass::GuaranteedBandwidth, 1, 0);
    const auto v = arb.aux_vc(1).value();
    if (v < prev) halved = true;
    prev = v;
  }
  EXPECT_TRUE(halved);
  EXPECT_LT(arb.aux_vc(0).value(), v0_before);
}

// ---- the GB search under faults (hand-computed winners) ----

TEST(OutputQosArbiterTest, QuarantineMergesLanesAndLrgResolvesTheTie) {
  auto arb = make_gb_arbiter();
  arb.advance_to(0);
  // Input 1 climbs to level 1 (Vtick 3: six grants reach value 18); then
  // input 0 moves to the back of the LRG order, so 1 beats 0.
  for (int g = 0; g < 64 && arb.gb_level(1) < 1; ++g) {
    arb.on_grant(1, TrafficClass::GuaranteedBandwidth, 1, 0);
  }
  ASSERT_EQ(arb.gb_level(1), 1u);
  ASSERT_EQ(arb.gb_level(0), 0u);
  arb.lrg().on_grant(0, 1, 0);
  ASSERT_TRUE(arb.lrg().beats(1, 0));
  const std::vector<ClassRequest> reqs = {
      {0, TrafficClass::GuaranteedBandwidth, 1},
      {1, TrafficClass::GuaranteedBandwidth, 1}};
  EXPECT_EQ(arb.pick(reqs, 0), 0u);  // level 0 beats level 1
  // Quarantining lane 0 remaps levels 0 and 1 to one sensed level: the two
  // requesters tie and LRG hands the grant to input 1.
  arb.quarantine_lane(0);
  EXPECT_EQ(arb.sensed_gb_level(0), 0u);
  EXPECT_EQ(arb.sensed_gb_level(1), 0u);
  EXPECT_EQ(arb.gb_level(1), 1u);
  EXPECT_EQ(arb.pick(reqs, 0), 1u);
  EXPECT_EQ(arb.picked_class(), TrafficClass::GuaranteedBandwidth);
}

TEST(OutputQosArbiterTest, FlippedThermometerCellPicksBySensedLevel) {
  auto arb = make_gb_arbiter();
  arb.advance_to(0);
  const std::vector<ClassRequest> reqs = {
      {0, TrafficClass::GuaranteedBandwidth, 1},
      {1, TrafficClass::GuaranteedBandwidth, 1}};
  ASSERT_EQ(arb.pick(reqs, 0), 0u);  // both at level 0: LRG picks input 0
  // A soft error sets cell T_2 of input 0's vector (stored 0b001 now reads
  // 0b101): the bitlines sense level 2 although the register still says 0.
  arb.aux_vc_mut(0).fault_flip_code(2);
  EXPECT_EQ(arb.gb_level(0), 0u);
  EXPECT_EQ(arb.sensed_gb_level(0), 2u);
  EXPECT_EQ(arb.pick(reqs, 0), 1u);
  // The scrubber rewrites the vector from the register; LRG decides again.
  EXPECT_EQ(arb.scrub(0), 1u);
  EXPECT_EQ(arb.pick(reqs, 0), 0u);
}

TEST(OutputQosArbiterTest, CorruptLrgRowDegradesToMaxOutDegreeRequester) {
  auto arb = make_gb_arbiter();
  arb.advance_to(0);
  arb.lrg().set_fault_tolerant(true);
  // Initial order 0 > 1 > 2 > 3. Clearing cells (0,1) and (0,2) leaves
  // row 0 = {3}: no requester beats all the others, and the out-degrees
  // among the four are 1, 2, 1, 0, so input 1 wins (not the clean winner 0).
  arb.lrg().fault_flip(0, 1);
  arb.lrg().fault_flip(0, 2);
  ASSERT_FALSE(arb.lrg().is_total_order());
  const auto reqs = gb_requests(4);
  EXPECT_EQ(arb.pick(reqs, 0), 1u);
  // repair_order() ranks by surviving out-degree, ties to the lower index:
  // 1 > 0 > 2 > 3, so the repaired matrix still elects input 1.
  EXPECT_EQ(arb.scrub(0), 1u);
  EXPECT_TRUE(arb.lrg().is_total_order());
  EXPECT_EQ(arb.pick(reqs, 0), 1u);
  EXPECT_TRUE(arb.lrg().beats(0, 2));
}

}  // namespace
}  // namespace ssq::core
