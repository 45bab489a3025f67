// Tests for src/fault: exhaustive single-bit-upset detection (every auxVC
// register bit and every thermometer cell), scrub repair semantics and
// latency, stuck-lane quarantine, LRG/GL-clock recovery, port outages,
// golden replay (equal plans realise bit-identical fault schedules), and
// plans under a matching engine (only outages act).
#include <gtest/gtest.h>

#include <vector>

#include "arb/matching.hpp"
#include "core/output_arbiter.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scrubber.hpp"
#include "obs/event.hpp"
#include "sim/error.hpp"
#include "switch/crossbar.hpp"
#include "traffic/workload.hpp"

namespace ssq {
namespace {

using core::AuxVc;
using core::OutputAllocation;
using core::OutputQosArbiter;
using core::SsvcParams;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::StateScrubber;
using traffic::FlowSpec;
using traffic::InjectKind;
using traffic::Workload;

SsvcParams test_params() {
  SsvcParams p;
  p.level_bits = 3;  // 8 GB lanes
  p.lsb_bits = 4;    // 16-cycle epochs
  return p;
}

/// Allocation with one GB reservation per input plus a GL share, so every
/// crosspoint has a meaningful Vtick and the GL clock is armed.
OutputAllocation test_alloc(std::uint32_t radix) {
  OutputAllocation a = OutputAllocation::none(radix);
  for (InputId i = 0; i < radix; ++i) a.gb_rate[i] = 0.08;
  a.gb_packet_len = 8;
  a.gl_rate = 0.05;
  a.gl_packet_len = 1;
  return a;
}

OutputQosArbiter make_arbiter(std::uint32_t radix = 8) {
  return OutputQosArbiter(radix, test_params(), test_alloc(radix));
}

// ------------------------------------------- exhaustive SEU detection ----

// Every single-bit flip of the parity-protected auxVC register is detected
// by one scrub pass and repaired, from both a zero and a mid-range starting
// value. LSB flips do not change the arbitration level, so only the stored
// parity can catch them — this is the property that forces the parity bit.
TEST(AuxVcFaultTest, EveryRegisterBitFlipIsDetectedAndRepaired) {
  const SsvcParams p = test_params();
  for (std::uint32_t grants : {0u, 3u}) {
    for (std::uint32_t bit = 0; bit < p.level_bits + p.lsb_bits; ++bit) {
      AuxVc vc(p, /*vtick_cycles=*/9);
      for (std::uint32_t g = 0; g < grants; ++g) vc.on_grant(0);
      ASSERT_FALSE(vc.corrupted());

      vc.fault_flip_value(bit);
      EXPECT_TRUE(vc.corrupted())
          << "flip of register bit " << bit << " after " << grants
          << " grants went undetected";
      const auto outcome = vc.scrub(/*rt=*/5);
      EXPECT_EQ(outcome, AuxVc::ScrubOutcome::ValueReset);
      EXPECT_FALSE(vc.corrupted());
      EXPECT_EQ(vc.code().level(), vc.level());
      EXPECT_EQ(vc.arb_level(), vc.level());
    }
  }
}

// Every single thermometer-cell flip is detected (the corruption overlay
// never cancels against the encoded value) and repaired exactly, because
// the register survives and re-derives the vector.
TEST(AuxVcFaultTest, EveryThermometerCellFlipIsDetectedAndRepaired) {
  const SsvcParams p = test_params();
  for (std::uint32_t grants : {0u, 2u, 5u}) {
    for (std::uint32_t lane = 0; lane < p.gb_levels(); ++lane) {
      AuxVc vc(p, /*vtick_cycles=*/9);
      for (std::uint32_t g = 0; g < grants; ++g) vc.on_grant(0);
      const std::uint64_t value_before = vc.value();

      vc.fault_flip_code(lane);
      EXPECT_TRUE(vc.corrupted())
          << "flip of thermometer cell " << lane << " at level "
          << vc.level() << " went undetected";
      const auto outcome = vc.scrub(/*rt=*/5);
      EXPECT_EQ(outcome, AuxVc::ScrubOutcome::CodeRepaired);
      EXPECT_FALSE(vc.corrupted());
      // The register was never corrupted, so the repair is exact.
      EXPECT_EQ(vc.value(), value_before);
      EXPECT_EQ(vc.arb_level(), vc.level());
    }
  }
}

// A double fault — register and vector hit together — still resolves: the
// untrustworthy register is re-synchronised to real time.
TEST(AuxVcFaultTest, DoubleFaultResolvesToValueReset) {
  AuxVc vc(test_params(), 9);
  vc.on_grant(0);
  vc.fault_flip_value(5);
  vc.fault_flip_code(1);
  EXPECT_EQ(vc.scrub(/*rt=*/7), AuxVc::ScrubOutcome::ValueReset);
  EXPECT_FALSE(vc.corrupted());
  EXPECT_EQ(vc.value(), 7u);
}

// ----------------------------------------------------- scrubber engine ----

// An upset is repaired no later than one scrub interval after injection.
// Counter policy None keeps the register write-free between passes: under
// the finite policies a legitimate epoch-wrap write refreshes parity and can
// launder a stale upset before the next pass reads it (exactly how a real
// read-modify-write of parity-protected SRAM behaves), so the one-interval
// bound is only crisp for state the hardware has not rewritten.
TEST(ScrubberTest, RepairsWithinOneInterval) {
  SsvcParams p = test_params();
  p.policy = core::CounterPolicy::None;
  OutputQosArbiter arb(8, p, test_alloc(8));
  StateScrubber scrubber(/*interval=*/64);
  scrubber.bind({&arb});

  constexpr Cycle kFlipAt = 10;
  Cycle repaired_at = kNoCycle;
  for (Cycle now = 0; now < 200; ++now) {
    if (now == kFlipAt) arb.aux_vc_mut(3).fault_flip_value(2);
    const auto before = scrubber.repairs();
    scrubber.on_cycle(now);
    if (repaired_at == kNoCycle && scrubber.repairs() > before) {
      repaired_at = now;
    }
  }
  ASSERT_NE(repaired_at, kNoCycle);
  EXPECT_LE(repaired_at, kFlipAt + scrubber.interval());
  EXPECT_FALSE(arb.aux_vc(3).corrupted());
}

TEST(ScrubberTest, LrgFlipBreaksAndRepairRestoresTotalOrder) {
  auto arb = make_arbiter();
  ASSERT_TRUE(arb.lrg().is_total_order());
  arb.lrg().fault_flip(1, 4);
  EXPECT_FALSE(arb.lrg().is_total_order());
  EXPECT_GE(arb.scrub(/*now=*/0), 1u);
  EXPECT_TRUE(arb.lrg().is_total_order());
}

TEST(ScrubberTest, GlClockFlipViolatesBoundAndIsRewound) {
  auto arb = make_arbiter();
  ASSERT_TRUE(arb.gl_tracker().sane(/*now=*/0));
  arb.gl_tracker_mut().fault_flip(40);  // clock jumps ~2^40 cycles ahead
  EXPECT_FALSE(arb.gl_tracker().sane(/*now=*/0));
  EXPECT_GE(arb.scrub(/*now=*/0), 1u);
  EXPECT_TRUE(arb.gl_tracker().sane(/*now=*/0));
}

// A stuck bitline corrupts the same lane pass after pass; the scrubber
// attributes the recurrences and quarantines the lane at its threshold.
TEST(ScrubberTest, StuckLaneIsQuarantined) {
  auto arb = make_arbiter();
  FaultPlan plan;
  plan.stuck_lanes.push_back(
      {.output = 0, .lane = 2, .stuck_high = true, .at = 0});
  FaultInjector injector(plan);
  injector.bind({&arb}, arb.radix());
  StateScrubber scrubber(/*interval=*/16, /*quarantine_threshold=*/3);
  scrubber.bind({&arb});

  for (Cycle now = 0; now < 200; ++now) {
    injector.on_cycle(now);
    scrubber.on_cycle(now);
  }
  EXPECT_EQ(arb.quarantined_lanes(), 1ULL << 2);
  EXPECT_GE(scrubber.repairs(), 3u);
}

// Quarantine compresses the sensed priority order onto the healthy lanes:
// occupants of and above the dead lane merge downward.
TEST(ScrubberTest, QuarantineRemapsSensedLevels) {
  auto arb = make_arbiter();
  // vtick for rate 0.08 / 8-flit packets is 100 cycles -> one grant at rt 0
  // puts the crosspoint several lanes up.
  arb.on_grant(0, TrafficClass::GuaranteedBandwidth, 8, 0);
  const auto level = arb.gb_level(0);
  ASSERT_GE(level, 2u);
  ASSERT_EQ(arb.sensed_gb_level(0), level);

  arb.quarantine_lane(1);
  // Ranks among healthy lanes below: every level above the dead lane drops
  // by exactly one; the quarantined bit is set.
  EXPECT_EQ(arb.sensed_gb_level(0), level - 1);
  EXPECT_EQ(arb.quarantined_lanes(), 1ULL << 1);
}

// ------------------------------------------------------------- outages ----

sw::SwitchConfig fault_config(std::uint32_t radix = 4) {
  sw::SwitchConfig c;
  c.radix = radix;
  c.ssvc.level_bits = 3;
  c.ssvc.lsb_bits = 5;
  c.seed = 3;
  return c;
}

FlowSpec be_flow(InputId src, OutputId dst, double load) {
  FlowSpec f;
  f.src = src;
  f.dst = dst;
  f.cls = TrafficClass::BestEffort;
  f.len_min = f.len_max = 4;
  f.inject = InjectKind::Bernoulli;
  f.inject_rate = load;
  return f;
}

TEST(OutageTest, DeadPortDeliversNothingOthersUnaffected) {
  Workload w(4);
  const FlowId dead = w.add_flow(be_flow(0, 1, 0.3));
  const FlowId alive = w.add_flow(be_flow(2, 3, 0.3));
  sw::CrossbarSwitch sim(fault_config(), std::move(w));

  FaultPlan plan;
  plan.port_kills.push_back({.input = 0, .at = 0, .restore_at = kNoCycle});
  FaultInjector injector(plan);
  sim.attach_fault_injector(&injector);

  sim.warmup(0);
  sim.measure(5000);
  EXPECT_EQ(sim.delivered_packets(dead), 0u);
  EXPECT_GT(sim.delivered_packets(alive), 100u);
}

TEST(OutageTest, RestoredPortResumesDelivery) {
  Workload w(4);
  const FlowId id = w.add_flow(be_flow(0, 1, 0.3));
  sw::CrossbarSwitch sim(fault_config(), std::move(w));

  FaultPlan plan;
  plan.port_kills.push_back({.input = 0, .at = 0, .restore_at = 2000});
  FaultInjector injector(plan);
  sim.attach_fault_injector(&injector);

  // The port is dead for the whole warmup; the measurement window spans the
  // restoration, so every delivery in it postdates the repair.
  sim.warmup(1000);
  sim.measure(6000);
  EXPECT_GT(sim.delivered_packets(id), 100u);
}

// -------------------------------------------------------- golden replay ----

Workload replay_workload() {
  Workload w(4);
  FlowSpec gb;
  gb.src = 0;
  gb.dst = 1;
  gb.cls = TrafficClass::GuaranteedBandwidth;
  gb.reserved_rate = 0.3;
  gb.len_min = gb.len_max = 8;
  gb.inject_rate = 0.35;
  w.add_flow(gb);
  w.add_flow(be_flow(2, 1, 0.5));
  w.add_flow(be_flow(3, 1, 0.4));
  return w;
}

FaultPlan replay_plan() {
  FaultPlan plan;
  plan.seed = 0xfa11;
  plan.bitflip_rate = 0.01;
  plan.stuck_lanes.push_back(
      {.output = 1, .lane = 3, .stuck_high = true, .at = 500});
  plan.port_kills.push_back({.input = 3, .at = 1000, .restore_at = 1500});
  return plan;
}

struct ReplayRun {
  std::vector<fault::InjectedFault> log;
  std::uint64_t repairs = 0;
  std::vector<std::uint64_t> delivered;
};

ReplayRun run_replay() {
  sw::CrossbarSwitch sim(fault_config(), replay_workload());
  FaultInjector injector(replay_plan());
  StateScrubber scrubber(/*interval=*/128);
  sim.attach_fault_injector(&injector);
  sim.attach_scrubber(&scrubber);
  sim.warmup(500);
  sim.measure(4000);
  ReplayRun r;
  r.log = injector.log();
  r.repairs = scrubber.repairs();
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    r.delivered.push_back(sim.delivered_packets(f));
  }
  return r;
}

// Two runs from equal plans realise bit-identical fault schedules and
// identical outcomes — the property `--fault-seed` promises.
TEST(GoldenReplayTest, EqualPlansReplayIdentically) {
  const ReplayRun a = run_replay();
  const ReplayRun b = run_replay();
  ASSERT_FALSE(a.log.empty());
  EXPECT_GT(a.repairs, 0u);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.delivered, b.delivered);
}

// --------------------------------------------------- engines and faults ----

// A matching engine is the whole arbitration state: the switch builds no
// per-output arbiter under one, so bitflips and stuck lanes have no target
// and only outages act. Under every engine the injector logs the port kill
// alone, the scrubber repairs nothing, and every flow delivers exactly what a
// twin run with the outages alone delivers.
TEST(EngineFaultTest, OnlyOutagesActUnderEveryEngine) {
  const auto run = [](arb::MatchKind kind, const FaultPlan& plan,
                      std::vector<fault::InjectedFault>& log) {
    sw::SwitchConfig cfg = fault_config();
    cfg.engine = kind;
    sw::CrossbarSwitch sim(cfg, replay_workload());
    FaultInjector injector(plan);
    StateScrubber scrubber(/*interval=*/128);
    sim.attach_fault_injector(&injector);
    sim.attach_scrubber(&scrubber);
    sim.warmup(500);
    sim.measure(4000);
    EXPECT_EQ(scrubber.repairs(), 0u);
    log = injector.log();
    std::vector<std::uint64_t> delivered;
    for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
      delivered.push_back(sim.delivered_packets(f));
    }
    return delivered;
  };
  const FaultPlan faulted = replay_plan();
  ASSERT_GT(faulted.bitflip_rate, 0.0);
  ASSERT_FALSE(faulted.stuck_lanes.empty());
  FaultPlan outages;
  outages.port_kills = faulted.port_kills;
  const fault::InjectedFault kill{1000, obs::kTargetPortKill, kNoPort, 3, 1};
  for (const arb::MatchKind kind :
       {arb::MatchKind::Islip, arb::MatchKind::Qps, arb::MatchKind::SwQps,
        arb::MatchKind::Ssvc}) {
    SCOPED_TRACE(arb::match_kind_name(kind));
    std::vector<fault::InjectedFault> log;
    const std::vector<std::uint64_t> delivered = run(kind, faulted, log);
    EXPECT_EQ(log, std::vector<fault::InjectedFault>{kill});
    std::vector<fault::InjectedFault> twin_log;
    EXPECT_EQ(delivered, run(kind, outages, twin_log));
    EXPECT_EQ(twin_log, log);
  }
}

// ----------------------------------------------------------- bad plans ----

TEST(FaultPlanTest, OutOfRangeCoordinatesThrowConfigError) {
  {
    FaultPlan p;
    p.stuck_lanes.push_back({.output = 9, .lane = 0, .stuck_high = true,
                             .at = 0});
    FaultInjector inj(p);
    EXPECT_THROW(inj.bind({}, 8), ssq::ConfigError);
  }
  {
    FaultPlan p;
    p.port_kills.push_back({.input = 8, .at = 0, .restore_at = kNoCycle});
    FaultInjector inj(p);
    EXPECT_THROW(inj.bind({}, 8), ssq::ConfigError);
  }
  {
    FaultPlan p;
    p.crosspoint_kills.push_back(
        {.input = 0, .output = 64, .at = 0, .restore_at = kNoCycle});
    FaultInjector inj(p);
    EXPECT_THROW(inj.bind({}, 8), ssq::ConfigError);
  }
}

}  // namespace
}  // namespace ssq
