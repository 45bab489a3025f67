// Online QoS conformance monitor + flight recorder: window accounting
// (including idle-window coalescing under clock jumps), violation detection
// from synthetic event streams, ring-buffer retention and dump format, the
// incident rig's snapshot rules, the fast-forward byte-diff regression for
// sampled runs, clean replays of the golden corpus staying violation-free,
// and two teeth tests — a switch that genuinely breaks its declared GL
// contract, and a killed input port starving a GB reservation — that must
// be flagged with a flight-recorder snapshot of the offending events.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "obs/conformance.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/probe.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "switch/crossbar.hpp"
#include "switch/observe.hpp"
#include "traffic/workload.hpp"

namespace ssq {
namespace {

namespace fs = std::filesystem;

obs::Event make_event(Cycle t, obs::EventKind kind, TrafficClass cls,
                      std::uint64_t flow, OutputId out, std::uint32_t len,
                      std::uint64_t arg0) {
  obs::Event e;
  e.cycle = t;
  e.kind = kind;
  e.cls = cls;
  e.flow = flow;
  e.output = out;
  e.length = len;
  e.arg0 = arg0;
  return e;
}

obs::Event created(Cycle t, std::uint64_t flow) {
  return make_event(t, obs::EventKind::PacketCreated,
                    TrafficClass::GuaranteedBandwidth, flow, 0, 4, 0);
}

obs::Event delivered(Cycle t, std::uint64_t flow, std::uint32_t len) {
  return make_event(t, obs::EventKind::Delivered,
                    TrafficClass::GuaranteedBandwidth, flow, 0, len, 0);
}

// ----------------------------------------------------- window accounting

TEST(Conformance, WindowAccountingClosesAlignedWindows) {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  cfg.flows.push_back({});  // one unreserved flow: nothing is judged
  obs::ConformanceMonitor mon(cfg);

  mon.on_event(created(10, 0));
  mon.on_event(delivered(150, 0, 4));
  mon.finalize(400);

  // [0,100) and [100,200) saw events; [200,300) and [300,400) were idle
  // with nothing inflight and coalesce.
  EXPECT_EQ(mon.windows_total(), 4u);
  EXPECT_EQ(mon.windows_ok(), 4u);
  EXPECT_EQ(mon.windows_violating(), 0u);
  EXPECT_EQ(mon.windows_coalesced(), 2u);
  EXPECT_EQ(mon.total_violations(), 0u);
}

TEST(Conformance, ClockJumpCoalescesIdleWindows) {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  cfg.flows.push_back({});
  obs::ConformanceMonitor mon(cfg);

  mon.on_event(created(5, 0));
  mon.on_event(delivered(5, 0, 4));
  // A fast-forward jump across nine whole idle windows must account for
  // each of them, not silently stretch the current one.
  mon.on_clock_jump(5, 1005);
  mon.finalize(1005);

  EXPECT_EQ(mon.windows_total(), 10u);
  EXPECT_EQ(mon.windows_coalesced(), 9u);
  EXPECT_EQ(mon.windows_ok(), 10u);
}

TEST(Conformance, BacklogDoesNotCoalesceAcrossJump) {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  cfg.flows.push_back({});
  obs::ConformanceMonitor mon(cfg);

  mon.on_event(created(5, 0));  // stays inflight: live != 0
  mon.on_clock_jump(5, 505);
  mon.finalize(505);

  EXPECT_EQ(mon.windows_total(), 5u);
  EXPECT_EQ(mon.windows_coalesced(), 0u);
}

// -------------------------------------------------- violation detection

TEST(Conformance, GbStarvationViolatesAndFiresCallback) {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  obs::FlowReservation r;
  r.cls = TrafficClass::GuaranteedBandwidth;
  r.dst = 0;
  r.reserved_rate = 0.5;
  r.mean_len = 8.0;
  cfg.flows.push_back(r);
  obs::ConformanceMonitor mon(cfg);

  std::vector<obs::Violation> fired;
  mon.set_on_violation([&](const obs::Violation& v) { fired.push_back(v); });

  // Five packets created in the first window and never delivered. The
  // first window does not count (the flow started empty, so it was not
  // backlogged throughout); the second window is fully backlogged with
  // zero delivered flits, far below the derated floor
  // 0.5 * 100 * (8/9) * (1 - 0.5) - 16 ≈ 6.2.
  for (Cycle t = 1; t <= 5; ++t) mon.on_event(created(t, 0));
  mon.finalize(200);

  EXPECT_EQ(mon.violations(obs::ViolationKind::GbShare), 1u);
  EXPECT_EQ(mon.windows_violating(), 1u);
  ASSERT_EQ(mon.records().size(), 1u);
  EXPECT_EQ(mon.records()[0].kind, obs::ViolationKind::GbShare);
  EXPECT_EQ(mon.records()[0].flow, 0u);
  EXPECT_EQ(mon.records()[0].observed, 0.0);
  EXPECT_GT(mon.records()[0].bound, 0.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].window_start, 100u);

  std::ostringstream js;
  mon.write_json(js);
  EXPECT_NE(js.str().find("\"schema\":\"ssq.conformance.v1\""),
            std::string::npos);
  EXPECT_NE(js.str().find("\"kind\":\"gb_share\""), std::string::npos);
}

TEST(Conformance, GlWaitBeyondBoundViolates) {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  cfg.gl_bound = {20.0};
  obs::ConformanceMonitor mon(cfg);

  mon.on_event(make_event(50, obs::EventKind::Grant,
                          TrafficClass::GuaranteedLatency, 0, 0, 2, 10));
  mon.on_event(make_event(90, obs::EventKind::Grant,
                          TrafficClass::GuaranteedLatency, 0, 0, 2, 50));
  mon.finalize(100);

  EXPECT_EQ(mon.gl_grants_checked(), 2u);
  EXPECT_EQ(mon.violations(obs::ViolationKind::GlLatency), 1u);
  ASSERT_EQ(mon.records().size(), 1u);
  EXPECT_EQ(mon.records()[0].observed, 50.0);
  EXPECT_EQ(mon.records()[0].bound, 20.0);
}

TEST(Conformance, GlWaitOverlappingStallIsSkipped) {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  cfg.gl_bound = {20.0};
  obs::ConformanceMonitor mon(cfg);

  // Stall at cycle 60 on output 1; a grant at 90 on output 0 whose 50-cycle
  // wait spans it is skipped anyway — one GL queue per input means a stall
  // toward any output can have blocked this packet head-of-line.
  mon.on_event(make_event(60, obs::EventKind::GlStall,
                          TrafficClass::GuaranteedLatency, obs::kNoId, 1, 0,
                          7));
  mon.on_event(make_event(90, obs::EventKind::Grant,
                          TrafficClass::GuaranteedLatency, 0, 0, 2, 50));
  mon.finalize(100);

  EXPECT_EQ(mon.violations(obs::ViolationKind::GlLatency), 0u);
  EXPECT_EQ(mon.gl_stall_skipped(), 1u);
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapKeepsNewestAndDumpsOldestFirst) {
  obs::FlightRecorder rec(4);
  for (Cycle t = 0; t < 10; ++t) rec.on_event(delivered(t, 0, 4));

  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.seen(), 10u);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().cycle, 6u);
  EXPECT_EQ(evs.back().cycle, 9u);

  const std::string dump = rec.dump_string("violation:gb_share", 9);
  EXPECT_NE(dump.find("ssq.flight.v1"), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"violation:gb_share\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(dump.find("\"ev\":\"deliver\""), std::string::npos);
  // Dumping does not clear the ring; a later trigger still has history.
  EXPECT_EQ(rec.size(), 4u);
}

// --------------------------------------------------------- incident rig

obs::Event fault_at(Cycle t) {
  return make_event(t, obs::EventKind::FaultInjected,
                    TrafficClass::BestEffort, obs::kNoId, 0, 0, 0);
}

obs::Event gl_grant(Cycle t, std::uint64_t wait) {
  return make_event(t, obs::EventKind::Grant, TrafficClass::GuaranteedLatency,
                    0, 0, 2, wait);
}

// A monitor judging output 0 against an Eq. (1) bound of 20 cycles: a GL
// grant that waited longer violates on the spot.
obs::ConformanceConfig gl_monitor_config() {
  obs::ConformanceConfig cfg;
  cfg.window = 100;
  cfg.gl_bound = {20.0};
  return cfg;
}

std::size_t event_lines(const std::string& snapshot) {
  const auto lines =
      static_cast<std::size_t>(std::count(snapshot.begin(), snapshot.end(),
                                          '\n'));
  return lines == 0 ? 0 : lines - 1;  // minus the header
}

TEST(IncidentRig, FirstViolationOrFaultSnapshotIsKept) {
  sw::IncidentRig rig(8, gl_monitor_config());
  ASSERT_NE(rig.sink(), nullptr);
  ASSERT_NE(rig.monitor(), nullptr);
  EXPECT_TRUE(rig.snapshot().empty());

  rig.sink()->on_event(delivered(3, 0, 4));
  rig.sink()->on_event(fault_at(10));
  const std::string first = rig.snapshot();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.rfind("{\"schema\":\"ssq.flight.v1\",\"reason\":\"fault\","
                        "\"cycle\":10,",
                        0),
            0u);
  // The recorder joined the tee first: the triggering event is in the ring.
  EXPECT_NE(first.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_EQ(rig.snapshot_events(), 2u);
  EXPECT_EQ(event_lines(first), rig.snapshot_events());

  rig.sink()->on_event(gl_grant(50, 60));
  EXPECT_EQ(rig.monitor()->violations(obs::ViolationKind::GlLatency), 1u);
  rig.sink()->on_event(fault_at(70));
  rig.monitor()->finalize(100);
  EXPECT_EQ(rig.snapshot(), first);
  EXPECT_EQ(rig.snapshot_events(), 2u);
}

TEST(IncidentRig, ViolationFirstIsKeptOverLaterFault) {
  sw::IncidentRig rig(8, gl_monitor_config());
  rig.sink()->on_event(gl_grant(40, 60));
  const std::string first = rig.snapshot();
  EXPECT_NE(first.find("\"reason\":\"violation:gl_latency\",\"cycle\":40"),
            std::string::npos);
  rig.sink()->on_event(fault_at(45));
  EXPECT_EQ(rig.snapshot(), first);
  EXPECT_EQ(rig.snapshot_events(), 1u);
}

TEST(IncidentRig, DivergenceReplacesSnapshot) {
  sw::IncidentRig rig(8, gl_monitor_config());
  rig.sink()->on_event(fault_at(10));
  ASSERT_FALSE(rig.snapshot().empty());
  rig.sink()->on_event(delivered(11, 0, 4));
  rig.sink()->on_event(delivered(12, 0, 4));

  rig.divergence("winner_mismatch", 12);
  EXPECT_EQ(rig.snapshot().rfind("{\"schema\":\"ssq.flight.v1\",\"reason\":"
                                 "\"divergence:winner_mismatch\",\"cycle\":12,",
                                 0),
            0u);
  EXPECT_EQ(rig.snapshot_events(), 3u);
  EXPECT_EQ(event_lines(rig.snapshot()), 3u);
}

TEST(IncidentRig, RecorderWithoutMonitorSnapshotsOnlyAtDivergence) {
  sw::IncidentRig rig(8, std::nullopt);
  ASSERT_NE(rig.sink(), nullptr);
  EXPECT_EQ(rig.monitor(), nullptr);
  rig.sink()->on_event(fault_at(10));
  rig.sink()->on_event(gl_grant(40, 60));
  EXPECT_TRUE(rig.snapshot().empty());
  EXPECT_EQ(rig.snapshot_events(), 0u);

  rig.divergence("grant_conflict", 41);
  EXPECT_NE(rig.snapshot().find("\"reason\":\"divergence:grant_conflict\""),
            std::string::npos);
  EXPECT_EQ(rig.snapshot_events(), 2u);
}

TEST(IncidentRig, EmptyRigAttachesNothing) {
  sw::IncidentRig rig(0, std::nullopt);
  EXPECT_EQ(rig.sink(), nullptr);
  EXPECT_EQ(rig.monitor(), nullptr);
  rig.divergence("winner_mismatch", 5);
  EXPECT_TRUE(rig.snapshot().empty());
}

// ------------------------------------- fast-forward byte-diff regression

traffic::Workload sparse_be_workload(std::uint32_t radix) {
  traffic::Workload w(radix);
  for (InputId i = 0; i < radix / 4; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Periodic;
    f.inject_rate = 0.02;  // period 400: ~97% of cycles globally idle
    w.add_flow(f);
  }
  return w;
}

TEST(Conformance, SampledRunByteIdenticalAcrossFastForward) {
  const std::uint32_t radix = 16;
  std::string json[2];
  std::uint64_t skipped = 0;
  for (int ff = 0; ff < 2; ++ff) {
    sw::SwitchConfig cfg;
    cfg.radix = radix;
    cfg.fast_forward = ff == 1;
    sw::CrossbarSwitch sim(cfg, sparse_be_workload(radix));
    obs::SwitchProbe probe(radix);
    sim.attach_probe(&probe);
    obs::SnapshotSampler sampler(radix, 256);
    sw::run_sampled(sim, 8000, sampler);
    EXPECT_GT(sampler.num_samples(), 0u);
    std::ostringstream os;
    sampler.write_json(os);
    json[ff] = os.str();
    if (ff == 1) skipped = sim.ff_skipped_cycles();
  }
  // Non-vacuous: the fast-forwarded run really did jump over idle cycles,
  // and its sampled boundaries match the stepped run byte for byte.
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(json[0], json[1]);
}

// ------------------------------------------------ golden corpus is clean

TEST(Conformance, GoldenCorpusCleanReplaysHaveZeroViolations) {
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(SSQ_GOLDEN_DIR)) {
    if (entry.path().extension() != ".scenario") continue;
    const check::Scenario s = check::load_scenario(entry.path().string());
    if (s.has_faults()) continue;  // faulted repros may legitimately violate
    check::CheckOptions opts;
    opts.monitor = true;
    const check::RunResult r = check::run_scenario(s, opts);
    EXPECT_FALSE(r.failed) << entry.path() << ": " << r.kind;
    EXPECT_EQ(r.violations_gb + r.violations_gl + r.violations_be, 0u)
        << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 3u) << "golden corpus unexpectedly small";
}

// ------------------------------------------------------------ teeth tests

// A switch whose GL buffers are deeper than the contract it advertised:
// the monitor judges real grants against the declared Eq. (1) bound, so
// waits the oversized buffers make possible must be flagged, and the
// flight recorder must ship the offending grant events.
TEST(Conformance, OverDeepGlBuffersBreachDeclaredBound) {
  const std::uint32_t radix = 8;
  traffic::Workload w(radix);
  for (InputId i = 0; i < 4; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedLatency;
    f.len_min = f.len_max = 2;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.5;
    w.add_flow(f);
  }
  w.set_gl_reservation(0, 0.06, 2);

  sw::SwitchConfig cfg;
  cfg.radix = radix;
  cfg.gl_policing = core::GlPolicing::None;  // nothing limits the flood
  cfg.buffers.gl_flits = 32;

  // The declared contract: 4-flit GL buffers, bound 2 + 4*(4 + 4/2) = 26.
  sw::SwitchConfig declared = cfg;
  declared.buffers.gl_flits = 4;

  sw::CrossbarSwitch sim(cfg, std::move(w));
  obs::SwitchProbe probe(radix);
  obs::FlightRecorder rec(64);
  obs::ConformanceMonitor mon(
      sw::make_conformance_config(declared, sim.workload(), 512));
  std::string dump;
  mon.set_on_violation([&](const obs::Violation& v) {
    if (dump.empty()) dump = rec.dump_string("violation", v.cycle);
  });
  obs::TeeSink tee;
  tee.add(&rec);  // recorder first, so the ring holds the triggering event
  tee.add(&mon);
  probe.set_extra_sink(&tee);
  sim.attach_probe(&probe);

  sim.run(5000);
  mon.finalize(sim.now());

  EXPECT_GT(mon.gl_grants_checked(), 0u);
  EXPECT_GT(mon.violations(obs::ViolationKind::GlLatency), 0u);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"ev\":\"grant\""), std::string::npos);
}

// An input port killed mid-run starves its GB reservation; the campaign
// plumbing (run_scenario with monitor + flight recorder) must surface the
// shortfall and attach an incident snapshot.
TEST(Conformance, KilledPortGbShortfallFlaggedWithFlightDump) {
  check::Scenario s;
  s.name = "kill-port-teeth";
  s.radix = 8;
  s.cycles = 4000;
  {
    traffic::FlowSpec f;
    f.src = 1;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedBandwidth;
    f.reserved_rate = 0.4;
    f.len_min = f.len_max = 4;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.5;
    s.flows.push_back(f);
  }
  {
    traffic::FlowSpec f;
    f.src = 2;
    f.dst = 3;
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 4;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.2;
    s.flows.push_back(f);
  }
  fault::PortKill kill;
  kill.input = 1;
  kill.at = 500;
  s.faults.port_kills.push_back(kill);

  check::CheckOptions opts;
  opts.monitor = true;
  opts.flight_recorder = 256;
  const check::RunResult r = check::run_scenario(s, opts);

  EXPECT_FALSE(r.failed) << r.kind << ": " << r.detail;
  EXPECT_GT(r.violations_gb, 0u);
  EXPECT_GT(r.windows_checked, 0u);
  ASSERT_FALSE(r.flight_dump.empty());
  EXPECT_NE(r.flight_dump.find("ssq.flight.v1"), std::string::npos);
  EXPECT_NE(r.flight_dump.find("\"ev\":\"deliver\""), std::string::npos);
}

}  // namespace
}  // namespace ssq
