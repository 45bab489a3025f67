// Tests for src/switch: machine-model timing (arbitration cycle, flit
// pipelining), buffering and backpressure, class priorities end-to-end,
// packet chaining, baseline arbiters, and determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/scenario.hpp"
#include "switch/crossbar.hpp"
#include "switch/simulator.hpp"
#include "traffic/workload.hpp"

namespace ssq::sw {
namespace {

using traffic::FlowSpec;
using traffic::InjectKind;
using traffic::Workload;

SwitchConfig base_config(std::uint32_t radix = 8) {
  SwitchConfig c;
  c.radix = radix;
  c.ssvc.level_bits = 4;  // Fig. 4: 4 significant bits
  c.ssvc.lsb_bits = 6;
  c.ssvc.vtick_shift = 2;
  c.buffers.be_flits = 16;
  c.buffers.gb_flits_per_output = 16;
  c.buffers.gl_flits = 16;
  c.seed = 1;
  return c;
}

FlowSpec gb_flow(InputId src, OutputId dst, double rate, std::uint32_t len,
                 double inject_rate,
                 InjectKind kind = InjectKind::Bernoulli) {
  FlowSpec f;
  f.src = src;
  f.dst = dst;
  f.cls = TrafficClass::GuaranteedBandwidth;
  f.reserved_rate = rate;
  f.len_min = f.len_max = len;
  f.inject = kind;
  f.inject_rate = inject_rate;
  return f;
}

FlowSpec be_flow(InputId src, OutputId dst, std::uint32_t len,
                 double inject_rate) {
  FlowSpec f;
  f.src = src;
  f.dst = dst;
  f.cls = TrafficClass::BestEffort;
  f.len_min = f.len_max = len;
  f.inject = InjectKind::Bernoulli;
  f.inject_rate = inject_rate;
  return f;
}

TEST(SwitchConfigTest, ValidateRefusesChainingAndPreemptionOffTheirArbiter) {
  // Both combinations are reachable from the command line (ssq_sim
  // --chaining --mode=lrg), so they must be a ConfigError, not an abort.
  SwitchConfig c = base_config();
  c.packet_chaining = true;
  EXPECT_NO_THROW(c.validate());  // chaining charges the SSVC arbiters
  c.mode = ArbitrationMode::Baseline;
  EXPECT_THROW(c.validate(), ConfigError);
  EXPECT_THROW(CrossbarSwitch(c, Workload(8)), ConfigError);
  c.packet_chaining = false;
  c.pvc.preemption = true;
  EXPECT_THROW(c.validate(), ConfigError);  // the baseline is LRG
  c.baseline = arb::Kind::Pvc;
  EXPECT_NO_THROW(c.validate());
  c.mode = ArbitrationMode::SsvcQos;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(CrossbarTest, UncontendedLatencyIsPacketLength) {
  // Periodic, far-apart packets: buffered and granted in the same cycle,
  // flits pipeline out over `len` cycles -> latency == len, wait == 0.
  Workload w(8);
  auto f = gb_flow(0, 1, 0.5, 8, 0.05, InjectKind::Periodic);
  const FlowId id = w.add_flow(f);
  CrossbarSwitch sw(base_config(), std::move(w));
  sw.warmup(0);
  sw.measure(2000);
  ASSERT_GT(sw.delivered_packets(id), 5u);
  EXPECT_DOUBLE_EQ(sw.latency().flow_summary(id).mean(), 8.0);
  EXPECT_DOUBLE_EQ(sw.latency().flow_summary(id).max(), 8.0);
  EXPECT_DOUBLE_EQ(sw.wait().flow_summary(id).max(), 0.0);
}

TEST(CrossbarTest, SaturatedThroughputLosesArbitrationCycle) {
  // One saturated 8-flit flow: 8 payload cycles + 1 arbitration cycle per
  // packet -> 8/9 ≈ 0.889 flits/cycle (the Fig. 4 ceiling).
  Workload w(8);
  const FlowId id = w.add_flow(gb_flow(0, 1, 1.0, 8, 1.0));
  CrossbarSwitch sw(base_config(), std::move(w));
  sw.warmup(1000);
  sw.measure(9000);
  EXPECT_NEAR(sw.throughput().rate(id), 8.0 / 9.0, 0.01);
}

TEST(CrossbarTest, PacketChainingRecoversTheLostCycle) {
  // Periodic arrivals at exactly one packet per 8 cycles: with chaining the
  // channel never pays an arbitration cycle after the first packet, so the
  // full 1.0 flits/cycle flows (Bernoulli at the same offered load would
  // leave stochastic gaps at this critically-loaded point).
  Workload w(8);
  const FlowId id =
      w.add_flow(gb_flow(0, 1, 1.0, 8, 1.0, InjectKind::Periodic));
  SwitchConfig c = base_config();
  c.packet_chaining = true;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(9000);
  EXPECT_NEAR(sw.throughput().rate(id), 1.0, 0.01);
}

TEST(CrossbarTest, ChainingIsGlAware) {
  // Packet chaining removes arbitration opportunities; a chain must break
  // when a GL packet waits, or Eq. (1) dies. Saturated chained GB from one
  // input, compliant GL from another: the GL bound still holds AND the GB
  // flow still benefits from chaining between GL arrivals.
  Workload w(4);
  const FlowId gbid =
      w.add_flow(gb_flow(0, 0, 0.8, 8, 1.0, InjectKind::Periodic));
  FlowSpec gl;
  gl.src = 1;
  gl.dst = 0;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.len_min = gl.len_max = 1;
  gl.inject = InjectKind::Bernoulli;
  gl.inject_rate = 0.01;
  const FlowId glid = w.add_flow(gl);
  w.set_gl_reservation(0, 0.05, 1);
  SwitchConfig c = base_config(4);
  c.packet_chaining = true;
  c.buffers.gl_flits = 4;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(60000);
  ASSERT_GT(sw.delivered_packets(glid), 100u);
  // tau = 8 + 1*(4 + 4) = 16.
  EXPECT_LE(sw.wait().flow_summary(glid).max(), 16.0);
  // Chaining still pays off between GL arrivals: above the 8/9 no-chaining
  // ceiling minus the GL share.
  EXPECT_GT(sw.throughput().rate(gbid), 0.93);
}

TEST(CrossbarTest, InputBusIsSingleTransmitter) {
  // One input saturating two outputs cannot exceed one packet in flight:
  // total accepted <= 8/9.
  Workload w(8);
  const FlowId a = w.add_flow(gb_flow(0, 1, 0.5, 8, 1.0));
  const FlowId b = w.add_flow(gb_flow(0, 2, 0.5, 8, 1.0));
  CrossbarSwitch sw(base_config(), std::move(w));
  sw.warmup(2000);
  sw.measure(20000);
  const double total = sw.throughput().rate(a) + sw.throughput().rate(b);
  EXPECT_LE(total, 8.0 / 9.0 + 0.01);
  // And the rotating pointer shares the bus fairly.
  EXPECT_NEAR(sw.throughput().rate(a), sw.throughput().rate(b), 0.05);
}

TEST(CrossbarTest, TwoInputsFillOneOutput) {
  // Two saturated inputs to one output: the output arbitrates every packet
  // back-to-back, still 8/9 total.
  Workload w(8);
  const FlowId a = w.add_flow(gb_flow(0, 1, 0.5, 8, 1.0));
  const FlowId b = w.add_flow(gb_flow(1, 1, 0.5, 8, 1.0));
  CrossbarSwitch sw(base_config(), std::move(w));
  sw.warmup(2000);
  sw.measure(18000);
  const double total = sw.throughput().rate(a) + sw.throughput().rate(b);
  EXPECT_NEAR(total, 8.0 / 9.0, 0.01);
  EXPECT_NEAR(sw.throughput().rate(a), sw.throughput().rate(b), 0.03);
}

TEST(CrossbarTest, GlWaitWithinEq1Bound) {
  // Inputs 1..7: saturated GB to output 0. Input 0: compliant GL flow.
  // Eq. (1): tau = l_max + N_GL * (b + b/l_min) = 8 + 1*(4+4) = 16 cycles.
  Workload w(8);
  for (InputId i = 1; i < 8; ++i) {
    w.add_flow(gb_flow(i, 0, 0.12, 8, 1.0));
  }
  FlowSpec gl;
  gl.src = 0;
  gl.dst = 0;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.len_min = gl.len_max = 1;
  gl.inject = InjectKind::Bernoulli;
  gl.inject_rate = 0.02;
  const FlowId glid = w.add_flow(gl);
  w.set_gl_reservation(0, 0.05, 1);
  SwitchConfig c = base_config();
  c.buffers.gl_flits = 4;  // b = 4
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(50000);
  ASSERT_GT(sw.delivered_packets(glid), 100u);
  EXPECT_LE(sw.wait().flow_summary(glid).max(), 16.0);
}

TEST(CrossbarTest, GlPolicingStallsAbusiveSender) {
  // A GL flow offering 10x its reservation must be throttled to roughly the
  // reserved rate, protecting the GB flow.
  Workload w(4);
  const FlowId gbid = w.add_flow(gb_flow(1, 0, 0.8, 8, 1.0));
  FlowSpec gl;
  gl.src = 0;
  gl.dst = 0;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.len_min = gl.len_max = 1;
  gl.inject = InjectKind::Bernoulli;
  gl.inject_rate = 0.5;  // wildly over the 5% reservation
  const FlowId glid = w.add_flow(gl);
  w.set_gl_reservation(0, 0.05, 1);
  SwitchConfig c = base_config(4);
  c.gl_policing = core::GlPolicing::Stall;
  c.gl_allowance_packets = 4;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(40000);
  // 5 % of channel TIME at 1-flit packets (1 transfer + 1 arbitration
  // cycle each) delivers 0.05 * 1/2 = 0.025 flits/cycle.
  EXPECT_NEAR(sw.throughput().rate(glid), 0.025, 0.005);
  EXPECT_GT(sw.throughput().rate(gbid), 0.7);
}

TEST(CrossbarTest, WithoutPolicingGlAbuseStarvesGb) {
  Workload w(4);
  const FlowId gbid = w.add_flow(gb_flow(1, 0, 0.8, 8, 1.0));
  FlowSpec gl;
  gl.src = 0;
  gl.dst = 0;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.len_min = gl.len_max = 8;
  gl.inject = InjectKind::Bernoulli;
  gl.inject_rate = 1.0;
  const FlowId glid = w.add_flow(gl);
  w.set_gl_reservation(0, 0.05, 8);
  SwitchConfig c = base_config(4);
  c.gl_policing = core::GlPolicing::None;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(20000);
  EXPECT_GT(sw.throughput().rate(glid), 0.4);
  EXPECT_LT(sw.throughput().rate(gbid), 0.5);  // GB degraded by the abuse
}

TEST(CrossbarTest, GbBeatsBeUnderContention) {
  // GB injecting at its reserved 0.7; saturated BE scavenges the leftover.
  // (A GB flow that never drains would starve BE entirely — §3: BE "is
  // serviced when neither GB nor GL packets are present".)
  Workload w(4);
  const FlowId gbid = w.add_flow(gb_flow(0, 2, 0.7, 8, 0.7));
  const FlowId beid = w.add_flow(be_flow(1, 2, 8, 1.0));
  CrossbarSwitch sw(base_config(4), std::move(w));
  sw.warmup(2000);
  sw.measure(20000);
  EXPECT_NEAR(sw.throughput().rate(gbid), 0.7, 0.03);
  EXPECT_GT(sw.throughput().rate(beid), 0.03);
  EXPECT_LT(sw.throughput().rate(beid), 0.25);
}

TEST(CrossbarTest, SaturatedGbStarvesBe) {
  // Absolute class priority: a GB flow with backlog always beats BE.
  Workload w(4);
  const FlowId gbid = w.add_flow(gb_flow(0, 2, 0.7, 8, 1.0));
  const FlowId beid = w.add_flow(be_flow(1, 2, 8, 1.0));
  CrossbarSwitch sw(base_config(4), std::move(w));
  sw.warmup(2000);
  sw.measure(20000);
  EXPECT_NEAR(sw.throughput().rate(gbid), 8.0 / 9.0, 0.02);
  EXPECT_LT(sw.throughput().rate(beid), 0.01);
}

TEST(CrossbarTest, BeOnlyTrafficSharesEquallyViaLrg) {
  Workload w(4);
  const FlowId a = w.add_flow(be_flow(0, 3, 4, 1.0));
  const FlowId b = w.add_flow(be_flow(1, 3, 4, 1.0));
  const FlowId c = w.add_flow(be_flow(2, 3, 4, 1.0));
  CrossbarSwitch sw(base_config(4), std::move(w));
  sw.warmup(2000);
  sw.measure(30000);
  const double ra = sw.throughput().rate(a);
  const double rb = sw.throughput().rate(b);
  const double rc = sw.throughput().rate(c);
  EXPECT_NEAR(ra + rb + rc, 4.0 / 5.0, 0.01);
  EXPECT_NEAR(ra, rb, 0.02);
  EXPECT_NEAR(rb, rc, 0.02);
}

TEST(CrossbarTest, FiniteBuffersBackpressureIntoSourceQueue) {
  SwitchConfig c = base_config(4);
  c.buffers.gb_flits_per_output = 8;  // one 8-flit packet at a time
  Workload w(4);
  const FlowId a = w.add_flow(gb_flow(0, 1, 0.4, 8, 1.0));
  const FlowId b = w.add_flow(gb_flow(1, 1, 0.4, 8, 1.0));
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(20000);
  // Still work-conserving: the two flows split the 8/9 channel.
  EXPECT_NEAR(sw.throughput().rate(a) + sw.throughput().rate(b), 8.0 / 9.0,
              0.02);
  // And the source queues grew (open-loop injection at 2x capacity).
  EXPECT_GT(sw.max_source_backlog(a), 100u);
}

TEST(CrossbarTest, BaselineModesRun) {
  for (arb::Kind kind :
       {arb::Kind::Lrg, arb::Kind::RoundRobin, arb::Kind::Age, arb::Kind::Wrr,
        arb::Kind::Dwrr, arb::Kind::Wfq, arb::Kind::VirtualClock}) {
    Workload w(4);
    const FlowId a = w.add_flow(gb_flow(0, 1, 0.5, 4, 1.0));
    const FlowId b = w.add_flow(gb_flow(1, 1, 0.25, 4, 1.0));
    SwitchConfig c = base_config(4);
    c.mode = ArbitrationMode::Baseline;
    c.baseline = kind;
    CrossbarSwitch sw(c, std::move(w));
    sw.warmup(1000);
    sw.measure(10000);
    const double total = sw.throughput().rate(a) + sw.throughput().rate(b);
    EXPECT_NEAR(total, 4.0 / 5.0, 0.02) << kind_name(kind);
  }
}

TEST(CrossbarTest, LrgBaselineSplitsEquallyIgnoringReservations) {
  // Fig. 4(a): "During congestion all flows receive an equal share" —
  // reservations are invisible to the LRG baseline.
  Workload w(4);
  const FlowId a = w.add_flow(gb_flow(0, 1, 0.6, 8, 1.0));
  const FlowId b = w.add_flow(gb_flow(1, 1, 0.1, 8, 1.0));
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Lrg;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(20000);
  EXPECT_NEAR(sw.throughput().rate(a), sw.throughput().rate(b), 0.02);
}

TEST(CrossbarTest, ChannelUsageAccountsEveryCycle) {
  // Saturated single 8-flit flow: per 9-cycle period, 1 arbitration +
  // 8 transfer cycles; idle ~ 0.
  Workload w(4);
  w.add_flow(gb_flow(0, 1, 1.0, 8, 1.0));
  CrossbarSwitch sw(base_config(4), std::move(w));
  sw.warmup(1000);
  sw.measure(18000);
  const auto u = sw.channel_usage(1);
  EXPECT_NEAR(static_cast<double>(u.arbitration_cycles) / 18000.0, 1.0 / 9.0,
              0.01);
  EXPECT_NEAR(static_cast<double>(u.transfer_cycles) / 18000.0, 8.0 / 9.0,
              0.01);
  // An unused output stays at zero.
  const auto idle = sw.channel_usage(2);
  EXPECT_EQ(idle.arbitration_cycles, 0u);
  EXPECT_EQ(idle.transfer_cycles, 0u);
}

TEST(CrossbarTest, ChannelUsageWithChainingHasFewArbitrations) {
  Workload w(4);
  w.add_flow(gb_flow(0, 1, 1.0, 8, 1.0, InjectKind::Periodic));
  SwitchConfig c = base_config(4);
  c.packet_chaining = true;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(16000);
  const auto u = sw.channel_usage(1);
  EXPECT_NEAR(static_cast<double>(u.transfer_cycles) / 16000.0, 1.0, 0.01);
  EXPECT_LT(u.arbitration_cycles, 50u);  // only re-arbitrates after gaps
}

TEST(CrossbarTest, TdmWastesIdleOwnersSlots) {
  // §2.2: TDM is non-work-conserving — flow 0 owns half the slots but goes
  // idle, and its slots are wasted instead of redistributed.
  auto run = [](arb::Kind kind) {
    Workload w(4);
    w.add_flow(gb_flow(0, 1, 0.5, 4, 0.01));  // nearly idle owner
    const FlowId busy = w.add_flow(gb_flow(1, 1, 0.5, 4, 1.0));
    SwitchConfig c = base_config(4);
    c.mode = ArbitrationMode::Baseline;
    c.baseline = kind;
    CrossbarSwitch sw(c, std::move(w));
    sw.warmup(2000);
    sw.measure(20000);
    return sw.throughput().rate(busy);
  };
  const double tdm_busy = run(arb::Kind::Tdm);
  const double lrg_busy = run(arb::Kind::Lrg);
  // Work-conserving LRG gives the busy flow nearly the whole channel; TDM
  // caps it at its own slot share.
  EXPECT_GT(lrg_busy, 0.75);
  EXPECT_LT(tdm_busy, 0.55);
  EXPECT_GT(tdm_busy, 0.35);
}

TEST(CrossbarTest, TdmHonorsSlotSharesWhenAllBusy) {
  Workload w(4);
  const FlowId a = w.add_flow(gb_flow(0, 1, 0.5, 4, 1.0));
  const FlowId b = w.add_flow(gb_flow(1, 1, 0.25, 4, 1.0));
  const FlowId c2 = w.add_flow(gb_flow(2, 1, 0.25, 4, 1.0));
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Tdm;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(40000);
  const double total = sw.throughput().rate(a) + sw.throughput().rate(b) +
                       sw.throughput().rate(c2);
  EXPECT_NEAR(sw.throughput().rate(a) / total, 0.5, 0.03);
  EXPECT_NEAR(sw.throughput().rate(b) / total, 0.25, 0.03);
}

TEST(CrossbarTest, GsfBoundsInjectionToFrameQuotas) {
  // A greedy reserved flow is held to ~its reservation by the frame quota
  // (minus the barrier-window overhead), protecting the other flow even on
  // a QoS-unaware LRG switch.
  Workload w(4);
  const FlowId greedy = w.add_flow(gb_flow(0, 1, 0.25, 8, 1.0));
  const FlowId meek = w.add_flow(gb_flow(1, 1, 0.5, 8, 0.5));
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Lrg;
  c.gsf.enabled = true;
  c.gsf.frame_cycles = 256;
  c.gsf.barrier_cycles = 16;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(50000);
  EXPECT_LT(sw.throughput().rate(greedy), 0.27);
  EXPECT_GT(sw.throughput().rate(meek), 0.45);
}

TEST(CrossbarTest, GsfBarrierCostsThroughput) {
  // §2.2: the global barrier "adds overhead and can be slow" — a flow
  // injecting at its full quota loses the barrier fraction of each frame.
  Workload w(4);
  const FlowId id = w.add_flow(gb_flow(0, 1, 0.8, 8, 0.8));
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Lrg;
  c.gsf.enabled = true;
  c.gsf.frame_cycles = 128;
  c.gsf.barrier_cycles = 32;  // 25 % of every frame
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(50000);
  // Quota = 0.8*128/8 = 12 packets = 96 flits per 128-cycle frame -> 0.75
  // flits/cycle at best; the offered 0.8 cannot get through.
  EXPECT_LT(sw.throughput().rate(id), 0.78);
  EXPECT_GT(sw.throughput().rate(id), 0.70);
}

TEST(CrossbarTest, TwoCycleArbitrationLowersTheCeiling) {
  // The legacy 4-level design [14] "required two arbitration cycles": the
  // saturated ceiling drops from L/(L+1) to L/(L+2).
  Workload w(4);
  const FlowId id = w.add_flow(gb_flow(0, 1, 1.0, 8, 1.0));
  SwitchConfig c = base_config(4);
  c.arbitration_cycles = 2;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(20000);
  EXPECT_NEAR(sw.throughput().rate(id), 8.0 / 10.0, 0.01);
}

TEST(CrossbarTest, LegacyFourLevelStarvesLowPriority) {
  // [14]: fixed priority between levels -> saturated high-level traffic
  // starves the lower level (the §2.2 starvation critique).
  Workload w(4);
  auto hi = gb_flow(0, 1, 0.5, 8, 1.0);
  hi.legacy_priority = 3;
  auto lo = gb_flow(1, 1, 0.4, 8, 1.0);
  lo.legacy_priority = 1;
  const FlowId hi_id = w.add_flow(hi);
  const FlowId lo_id = w.add_flow(lo);
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::MultiLevel;
  c.arbitration_cycles = 2;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(20000);
  EXPECT_NEAR(sw.throughput().rate(hi_id), 8.0 / 10.0, 0.02);
  EXPECT_LT(sw.throughput().rate(lo_id), 0.01);
}

TEST(CrossbarTest, LegacyFourLevelCannotPartitionBandwidth) {
  // [14]: same-level messages split evenly regardless of the reservations —
  // "inputs could only assign a priority level to messages and could not
  // control how much bandwidth each priority level receives".
  Workload w(4);
  auto a = gb_flow(0, 1, 0.6, 8, 1.0);
  a.legacy_priority = 2;
  auto b = gb_flow(1, 1, 0.2, 8, 1.0);
  b.legacy_priority = 2;
  const FlowId a_id = w.add_flow(a);
  const FlowId b_id = w.add_flow(b);
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::MultiLevel;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(20000);
  EXPECT_NEAR(sw.throughput().rate(a_id), sw.throughput().rate(b_id), 0.02);
}

TEST(CrossbarTest, MatchedModeDegeneratesToSingleOutputArbitration) {
  // With one contended output, iterative matching and single-request make
  // the same per-flow decisions (the matching only matters when an input
  // has alternatives).
  auto run = [](AllocationMode alloc) {
    Workload w(4);
    w.add_flow(gb_flow(0, 1, 0.6, 8, 0.9));
    w.add_flow(gb_flow(1, 1, 0.3, 8, 0.9));
    SwitchConfig c = base_config(4);
    c.allocation = alloc;
    CrossbarSwitch sw(c, std::move(w));
    sw.warmup(2000);
    sw.measure(40000);
    return std::pair{sw.throughput().rate(0), sw.throughput().rate(1)};
  };
  const auto single = run(AllocationMode::SingleRequest);
  const auto matched = run(AllocationMode::IterativeMatching);
  EXPECT_NEAR(matched.first, single.first, 0.01);
  EXPECT_NEAR(matched.second, single.second, 0.01);
  EXPECT_NEAR(matched.first + matched.second, 8.0 / 9.0, 0.01);
}

TEST(CrossbarTest, MatchedModeImprovesUniformTrafficUtilisation) {
  // All-to-all GB traffic (per-output queues = virtual output queues):
  // matching lets an input that lost one output serve another in the same
  // cycle, where the single-request model idles.
  auto run = [](AllocationMode alloc) {
    Workload w(4);
    for (InputId i = 0; i < 4; ++i) {
      for (OutputId o = 0; o < 4; ++o) {
        if (i == o) continue;
        w.add_flow(gb_flow(i, o, 0.25, 8, 0.5));
      }
    }
    SwitchConfig c = base_config(4);
    c.allocation = alloc;
    c.match_iterations = 3;
    CrossbarSwitch sw(c, std::move(w));
    sw.warmup(2000);
    sw.measure(30000);
    double total = 0.0;
    for (FlowId f = 0; f < 12; ++f) total += sw.throughput().rate(f);
    return total;
  };
  const double single = run(AllocationMode::SingleRequest);
  const double matched = run(AllocationMode::IterativeMatching);
  EXPECT_GE(matched, single - 0.02);
  EXPECT_GT(matched, 2.0);  // well past half the 4-output aggregate
}

TEST(CrossbarTest, MatchedModeConservesPackets) {
  Workload w(4);
  std::vector<std::uint32_t> bursts;
  for (InputId i = 0; i < 4; ++i) {
    for (OutputId o = 0; o < 4; ++o) {
      FlowSpec f;
      f.src = i;
      f.dst = o;
      f.cls = (i + o) % 2 ? TrafficClass::BestEffort
                          : TrafficClass::GuaranteedBandwidth;
      if (f.cls == TrafficClass::GuaranteedBandwidth) f.reserved_rate = 0.2;
      f.len_min = f.len_max = 3;
      f.inject = InjectKind::BurstOnce;
      f.burst_start = 10 * i + o;
      f.burst_packets = 5 + i + o;
      w.add_flow(f);
      bursts.push_back(f.burst_packets);
    }
  }
  SwitchConfig c = base_config(4);
  c.allocation = AllocationMode::IterativeMatching;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(0);
  sw.measure(10000);
  for (FlowId f = 0; f < bursts.size(); ++f) {
    EXPECT_EQ(sw.delivered_packets(f), bursts[f]) << "flow " << f;
  }
}

TEST(CrossbarTest, MatchedModeGlStillOverridesGb) {
  Workload w(4);
  const FlowId gbid = w.add_flow(gb_flow(1, 0, 0.8, 8, 1.0));
  FlowSpec gl;
  gl.src = 0;
  gl.dst = 0;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.len_min = gl.len_max = 1;
  gl.inject = InjectKind::Bernoulli;
  gl.inject_rate = 0.02;
  const FlowId glid = w.add_flow(gl);
  w.set_gl_reservation(0, 0.05, 1);
  SwitchConfig c = base_config(4);
  c.allocation = AllocationMode::IterativeMatching;
  c.buffers.gl_flits = 4;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(40000);
  EXPECT_GT(sw.delivered_packets(glid), 100u);
  EXPECT_LE(sw.wait().flow_summary(glid).max(), 16.0);  // Eq. (1) bound
  EXPECT_GT(sw.throughput().rate(gbid), 0.7);
}

TEST(CrossbarTest, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Workload w(4);
    w.add_flow(gb_flow(0, 1, 0.5, 8, 0.6));
    w.add_flow(gb_flow(1, 1, 0.3, 4, 0.6));
    SwitchConfig c = base_config(4);
    c.seed = seed;
    return run_experiment(c, std::move(w), 500, 5000);
  };
  const auto r1 = run(7);
  const auto r2 = run(7);
  const auto r3 = run(8);
  ASSERT_EQ(r1.flows.size(), r2.flows.size());
  for (std::size_t f = 0; f < r1.flows.size(); ++f) {
    EXPECT_EQ(r1.flows[f].delivered_packets, r2.flows[f].delivered_packets);
    EXPECT_DOUBLE_EQ(r1.flows[f].mean_latency, r2.flows[f].mean_latency);
  }
  // A different seed gives a different (but close) realisation.
  bool any_diff = false;
  for (std::size_t f = 0; f < r1.flows.size(); ++f) {
    if (r1.flows[f].delivered_packets != r3.flows[f].delivered_packets) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(CrossbarTest, LatencyFromCreationIncludesSourceQueueing) {
  // Open-loop injection at 2x capacity: network latency stays bounded by
  // the finite input buffer, but creation-to-delivery latency grows with
  // the (unbounded) source queue.
  auto run = [](bool from_creation) {
    Workload w(4);
    w.add_flow(gb_flow(0, 1, 0.8, 8, 1.0));
    SwitchConfig c = base_config(4);
    c.latency_from_creation = from_creation;
    CrossbarSwitch sw(c, std::move(w));
    sw.warmup(2000);
    sw.measure(20000);
    return sw.latency().flow_summary(0).mean();
  };
  const double network = run(false);
  const double end_to_end = run(true);
  EXPECT_LT(network, 40.0);           // bounded by the 16-flit buffer
  EXPECT_GT(end_to_end, 10.0 * network);  // source backlog dominates
}

TEST(CrossbarTest, DemotedGlStillFlowsAtBestEffortPriority) {
  // GlPolicing::Demote: an over-budget GL sender keeps draining — but only
  // through leftover bandwidth, never ahead of GB.
  Workload w(4);
  const FlowId gbid = w.add_flow(gb_flow(1, 0, 0.6, 8, 0.6));
  FlowSpec gl;
  gl.src = 0;
  gl.dst = 0;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.len_min = gl.len_max = 4;
  gl.inject = InjectKind::Bernoulli;
  gl.inject_rate = 0.5;  // 10x its reservation
  const FlowId glid = w.add_flow(gl);
  w.set_gl_reservation(0, 0.05, 4);
  SwitchConfig c = base_config(4);
  c.gl_policing = core::GlPolicing::Demote;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(40000);
  // GB keeps its reservation; the demoted GL scavenges well beyond its 5 %
  // reserved slice (unlike Stall, which would cap it at ~0.025).
  EXPECT_NEAR(sw.throughput().rate(gbid), 0.6, 0.03);
  EXPECT_GT(sw.throughput().rate(glid), 0.1);
}

TEST(CrossbarTest, VariablePacketSizesWithDwrrAreFlitFair) {
  // Flow 0 sends 2-flit packets, flow 1 sends 8-flit packets; DWRR with
  // equal shares must equalise FLITS, not packets.
  Workload w(4);
  auto a = gb_flow(0, 1, 0.45, 2, 0.9);
  auto b = gb_flow(1, 1, 0.45, 8, 0.9);
  const FlowId aid = w.add_flow(a);
  const FlowId bid = w.add_flow(b);
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Dwrr;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(40000);
  // DWRR is flit-fair to within a quantum; allow ~15 % relative skew from
  // the winner-stays pointer interacting with refill order.
  EXPECT_NEAR(sw.throughput().rate(aid), sw.throughput().rate(bid), 0.06);
  // Packet counts differ ~4x even though flit rates roughly match.
  EXPECT_GT(sw.delivered_packets(aid),
            3 * sw.delivered_packets(bid));
}

TEST(CrossbarTest, PvcModeDeliversReservedShares) {
  Workload w(4);
  const FlowId a = w.add_flow(gb_flow(0, 1, 0.6, 8, 0.9));
  const FlowId b = w.add_flow(gb_flow(1, 1, 0.3, 8, 0.9));
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Pvc;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(2000);
  sw.measure(60000);
  const double total = sw.throughput().rate(a) + sw.throughput().rate(b);
  EXPECT_NEAR(total, 8.0 / 9.0, 0.02);
  EXPECT_NEAR(sw.throughput().rate(a) / total, 2.0 / 3.0, 0.06);
}

TEST(CrossbarTest, PvcPreemptionAbortsAndRetransmits) {
  // A heavy flow monopolises the output; a light flow's packets arrive
  // rarely. With preemption the light flow's packets cut in (its PVC level
  // is 0, the heavy flow's is high); the victims are retransmitted and
  // every packet is still delivered exactly once. Both allocation modes
  // record the grant-time level preemption compares against.
  for (const AllocationMode alloc :
       {AllocationMode::SingleRequest, AllocationMode::IterativeMatching}) {
    SCOPED_TRACE(alloc == AllocationMode::SingleRequest ? "single-request"
                                                        : "iterative");
    Workload w(4);
    const FlowId heavy = w.add_flow(gb_flow(0, 1, 0.7, 8, 1.0));
    auto light_spec = gb_flow(1, 1, 0.2, 2, 0.0);
    light_spec.inject = InjectKind::Periodic;
    light_spec.inject_rate = 0.02;  // one 2-flit packet per 100 cycles
    const FlowId light = w.add_flow(light_spec);
    SwitchConfig c = base_config(4);
    c.mode = ArbitrationMode::Baseline;
    c.baseline = arb::Kind::Pvc;
    c.allocation = alloc;
    c.pvc.preemption = true;
    c.pvc.preempt_margin = 2;
    CrossbarSwitch sw(c, std::move(w));
    sw.warmup(2000);
    sw.measure(40000);
    EXPECT_GT(sw.preemptions(1), 50u);
    EXPECT_GT(sw.wasted_flits(), 50u);
    // The light flow's wait is short thanks to preemption.
    EXPECT_LT(sw.wait().flow_summary(light).mean(), 6.0);
    // Work conservation still holds minus the waste.
    const double total =
        sw.throughput().rate(heavy) + sw.throughput().rate(light);
    EXPECT_GT(total, 0.8);
  }
}

TEST(CrossbarTest, PvcPreemptionConservesPackets) {
  Workload w(4);
  std::vector<std::uint32_t> bursts;
  for (InputId i = 0; i < 3; ++i) {
    FlowSpec f;
    f.src = i;
    f.dst = 1;
    f.cls = TrafficClass::GuaranteedBandwidth;
    f.reserved_rate = 0.3;
    f.len_min = f.len_max = 4 + i * 2;
    f.inject = InjectKind::BurstOnce;
    f.burst_start = 100 * i;
    f.burst_packets = 20;
    w.add_flow(f);
    bursts.push_back(f.burst_packets);
  }
  SwitchConfig c = base_config(4);
  c.mode = ArbitrationMode::Baseline;
  c.baseline = arb::Kind::Pvc;
  c.pvc.preemption = true;
  c.pvc.preempt_margin = 1;  // aggressive
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(0);
  sw.measure(20000);
  for (FlowId f = 0; f < bursts.size(); ++f) {
    EXPECT_EQ(sw.delivered_packets(f), bursts[f]) << "flow " << f;
  }
}

TEST(CrossbarTest, GoldenRegressionPinnedSeed) {
  // Regression pin: exact delivered-packet counts for a fixed seed. These
  // numbers encode the simulator's cycle-level behaviour; a change here
  // means the machine model changed and EXPERIMENTS.md must be re-baselined.
  Workload w(4);
  w.add_flow(gb_flow(0, 1, 0.5, 8, 0.4));
  w.add_flow(gb_flow(1, 1, 0.3, 4, 0.4));
  w.add_flow(be_flow(2, 1, 8, 0.5));
  SwitchConfig c = base_config(4);
  c.seed = 0xABCD;
  CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(10000);
  const std::uint64_t delivered[3] = {sw.delivered_packets(0),
                                      sw.delivered_packets(1),
                                      sw.delivered_packets(2)};
  // Re-run: identical.
  Workload w2(4);
  w2.add_flow(gb_flow(0, 1, 0.5, 8, 0.4));
  w2.add_flow(gb_flow(1, 1, 0.3, 4, 0.4));
  w2.add_flow(be_flow(2, 1, 8, 0.5));
  CrossbarSwitch sw2(c, std::move(w2));
  sw2.warmup(1000);
  sw2.measure(10000);
  for (FlowId f = 0; f < 3; ++f) {
    EXPECT_EQ(sw2.delivered_packets(f), delivered[f]);
  }
  // Sanity ranges so the pin itself is meaningful.
  EXPECT_NEAR(static_cast<double>(delivered[0]), 0.4 / 8 * 11000, 60.0);
  EXPECT_NEAR(static_cast<double>(delivered[1]), 0.4 / 4 * 11000, 90.0);
}

TEST(SimulatorTest, SummaryFieldsConsistent) {
  Workload w(4);
  w.add_flow(gb_flow(0, 1, 0.5, 8, 0.3));
  const auto r = run_experiment(base_config(4), std::move(w), 500, 50000);
  ASSERT_EQ(r.flows.size(), 1u);
  const auto& s = r.flows[0];
  EXPECT_EQ(s.src, 0u);
  EXPECT_EQ(s.dst, 1u);
  EXPECT_EQ(s.cls, TrafficClass::GuaranteedBandwidth);
  EXPECT_NEAR(s.offered_rate, 0.3, 0.02);
  EXPECT_NEAR(s.accepted_rate, 0.3, 0.02);
  EXPECT_GT(s.mean_latency, 7.9);
  EXPECT_GT(s.delivered_packets, 100u);
  EXPECT_EQ(r.measured_cycles, 50000u);
  EXPECT_NEAR(r.total_accepted_rate, s.accepted_rate, 1e-12);
}

// -- Selection specification ------------------------------------------------
//
// The switch keeps every input's request, the per-output class masks and the
// requested-output set across cycles, and selects again only the inputs an
// event marked. select_one() is the specification: after every step, each
// kept request must equal a from-scratch selection at that cycle, and the
// masks and requested set must be exactly those the requests imply. A grant
// winner's head is gone by then, so its kept request is checked against the
// grant instead. The idle outputs the selection saw are checked too: those
// idle before the step, plus those a preemption freed during it.

/// Bit o set <=> output o can start a transmission at sw.now().
std::uint64_t idle_outputs(const CrossbarSwitch& sw) {
  std::uint64_t idle = 0;
  for (OutputId o = 0; o < sw.config().radix; ++o) {
    if (sw.output_idle(o)) idle |= 1ULL << o;
  }
  return idle;
}

/// First disagreement between the cycle record and a from-scratch
/// selection, or "" when they agree. `idle` is the expected idle set.
std::string selection_mismatch(const CrossbarSwitch& sw, std::uint64_t idle) {
  const CycleRecord rec = sw.last_cycle();
  const std::uint32_t radix = sw.config().radix;
  std::ostringstream why;
  why << "cycle " << rec.cycle << ": ";
  if (rec.idle != idle) {
    why << "selection saw idle outputs 0x" << std::hex << rec.idle
        << ", expected 0x" << idle;
    return why.str();
  }
  std::uint64_t winners = 0;
  for (const GrantRecord& g : rec.grants) {
    if (g.chained) continue;
    winners |= 1ULL << g.input;
    const PendingRequest& p = rec.pending[g.input];
    if (p.out != g.output || p.cls != g.cls) {
      why << "input " << g.input << " won output " << g.output
          << " but its kept request is for output " << p.out;
      return why.str();
    }
  }
  std::vector<core::ClassMasks> masks(radix);
  std::uint64_t requested = 0;
  for (InputId i = 0; i < radix; ++i) {
    const PendingRequest& p = rec.pending[i];
    if (((winners >> i) & 1) == 0 &&
        p != sw.select_one(i, rec.idle, rec.cycle)) {
      why << "input " << i << " keeps a request for output " << p.out
          << ", a fresh selection asserts one for output "
          << sw.select_one(i, rec.idle, rec.cycle).out;
      return why.str();
    }
    if (p.out == kNoPort) continue;
    masks[p.out].add(i, p.cls);
    requested |= 1ULL << p.out;
  }
  for (OutputId o = 0; o < radix; ++o) {
    const core::ClassMasks& m = rec.masks[o];
    if (m.gl != masks[o].gl || m.gb != masks[o].gb || m.be != masks[o].be) {
      why << "output " << o << " class masks differ from the requests";
      return why.str();
    }
  }
  if (rec.requested != requested) {
    why << "requested set differs from the requests";
    return why.str();
  }
  return "";
}

/// Steps `cycles` cycles the way run() does (fast-forwarding quiescent
/// stretches when eligible) and checks every stepped cycle; stops at the
/// first mismatch.
void expect_selection_matches(CrossbarSwitch& sw, Cycle cycles,
                              const std::string& what) {
  const Cycle end = sw.now() + cycles;
  std::vector<std::uint64_t> preempted(sw.config().radix);
  while (sw.now() < end) {
    if (sw.fast_forward_eligible() && sw.quiescent()) {
      sw.fast_forward(end);
      if (sw.now() >= end) break;
    }
    std::uint64_t idle = idle_outputs(sw);
    for (OutputId o = 0; o < sw.config().radix; ++o) {
      preempted[o] = sw.preemptions(o);
    }
    sw.step();
    // A preemption frees its output mid-step, before selection.
    for (OutputId o = 0; o < sw.config().radix; ++o) {
      if (sw.preemptions(o) != preempted[o]) idle |= 1ULL << o;
    }
    const std::string why = selection_mismatch(sw, idle);
    if (!why.empty()) {
      ADD_FAILURE() << what << ": " << why;
      return;
    }
  }
}

void expect_scenario_selection_matches(const check::Scenario& s) {
  check::ScenarioRun rig = check::instantiate(s);
  expect_selection_matches(*rig.sim, s.cycles, s.name);
}

/// A dense radix-8 mix: every input sources GB, BE and (two of them) GL
/// traffic toward several outputs, hot on output 0.
check::Scenario dense_scenario(const std::string& name) {
  check::Scenario s;
  s.name = name;
  s.seed = 99;
  s.cycles = 4000;
  s.radix = 8;
  s.buffers.be_flits = 10;
  s.buffers.gb_flits_per_output = 8;
  s.buffers.gl_flits = 4;
  for (InputId i = 0; i < 8; ++i) {
    s.flows.push_back(gb_flow(i, 0, 0.08, 2 + i % 3, 0.15));
    s.flows.push_back(gb_flow(i, 1 + (i + 3) % 7, 0.1, 3, 0.12));
    s.flows.push_back(be_flow(i, (i + 5) % 8, 1 + i % 4, 0.2));
  }
  for (InputId i : {2u, 6u}) {
    FlowSpec gl;
    gl.src = i;
    gl.dst = 0;
    gl.cls = TrafficClass::GuaranteedLatency;
    gl.inject_rate = 0.02;
    s.flows.push_back(gl);
  }
  s.gl_reservations.push_back({0, 0.05, 1});
  return s;
}

TEST(SelectionSpec, IncrementalRequestsMatchFromScratch) {
  for (std::uint64_t i = 0; i < 60; ++i) {
    const check::Scenario s = check::generate_scenario(i, 515);
    if (s.matching_engine != arb::MatchKind::None) continue;
    expect_scenario_selection_matches(s);
  }
  expect_scenario_selection_matches(dense_scenario("dense"));

  check::Scenario gsf = dense_scenario("gsf");
  gsf.gsf.enabled = true;
  gsf.gsf.frame_cycles = 64;
  gsf.gsf.barrier_cycles = 8;
  expect_scenario_selection_matches(gsf);

  check::Scenario chain = dense_scenario("chaining");
  chain.packet_chaining = true;
  expect_scenario_selection_matches(chain);

  check::Scenario legacy = dense_scenario("two-cycle arbitration");
  legacy.arbitration_cycles = 2;
  expect_scenario_selection_matches(legacy);

  check::Scenario outage = dense_scenario("outages");
  outage.faults.port_kills.push_back({1, 300, 900});
  outage.faults.port_kills.push_back({4, 1200, kNoCycle});
  outage.faults.crosspoint_kills.push_back({2, 0, 200, 1500});
  outage.faults.crosspoint_kills.push_back({5, 3, 700, 2600});
  outage.faults.crosspoint_kills.push_back({3, 0, 900, 901});
  outage.faults.bitflip_rate = 0.001;
  outage.scrub_interval = 128;
  expect_scenario_selection_matches(outage);

  // A quiet crosspoint: input 3's burst to an otherwise unused output sits
  // behind a dead crosspoint. Its restore is the only event that changes
  // input 3's selection — no admission, no output turning idle.
  check::Scenario quiet;
  quiet.name = "quiet crosspoint";
  quiet.cycles = 600;
  quiet.radix = 4;
  FlowSpec burst = gb_flow(3, 3, 0.5, 2, 0.0, InjectKind::BurstOnce);
  burst.burst_start = 100;
  burst.burst_packets = 3;
  quiet.flows.push_back(burst);
  quiet.flows.push_back(gb_flow(0, 1, 0.5, 4, 0.3));
  quiet.faults.crosspoint_kills.push_back({3, 3, 50, 400});
  expect_scenario_selection_matches(quiet);

  // Baseline arbiters, PVC preemption included: preemption frees a port
  // and an output mid-cycle and pushes the victim back to a queue head.
  const check::Scenario dense = dense_scenario("baseline");
  for (const arb::Kind kind :
       {arb::Kind::Lrg, arb::Kind::Tdm, arb::Kind::Pvc}) {
    SwitchConfig c = base_config(8);
    c.buffers = dense.buffers;
    c.mode = ArbitrationMode::Baseline;
    c.baseline = kind;
    c.pvc.preemption = kind == arb::Kind::Pvc;
    c.pvc.preempt_margin = 1;
    CrossbarSwitch sw(c, dense.build_workload());
    expect_selection_matches(sw, dense.cycles,
                             std::string(arb::kind_name(kind)));
    if (kind == arb::Kind::Pvc) {
      std::uint64_t preemptions = 0;
      for (OutputId o = 0; o < 8; ++o) preemptions += sw.preemptions(o);
      EXPECT_GT(preemptions, 0u) << "the preemption leg would be vacuous";
    }
  }
}

}  // namespace
}  // namespace ssq::sw
