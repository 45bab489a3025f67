// Seeded-determinism regression: equal seeds must produce byte-identical
// trace output across independent runs, for the plain simulation path, the
// fuzz-generated path, and the chaos (fault-injected + scrubbed) path. This
// is the property every other test leans on — replayable repros, the golden
// corpus, `--fault-seed` chaos replays — so it gets its own regression.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "arb/factory.hpp"
#include "arb/matching.hpp"
#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "check/trace.hpp"
#include "exec/thread_pool.hpp"
#include "obs/conformance.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "switch/crossbar.hpp"
#include "switch/observe.hpp"

namespace ssq::check {
namespace {

/// Full JSONL event trace of a scenario run — every event kind, not just the
/// golden selection, so divergence anywhere in the event stream is caught.
std::string jsonl_trace(const Scenario& s) {
  ScenarioRun rig = instantiate(s);
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Tracer tracer(sink);
  obs::SwitchProbe probe(s.radix);
  probe.set_tracer(&tracer);
  rig.sim->attach_probe(&probe);
  for (Cycle t = 0; t < s.cycles; ++t) rig.sim->step();
  rig.sim->attach_probe(nullptr);
  tracer.finish();
  return out.str();
}

Scenario sim_scenario() {
  Scenario s;
  s.name = "determinism-sim";
  s.seed = 77;
  s.cycles = 1500;
  s.radix = 8;
  traffic::FlowSpec gb;
  gb.src = 0;
  gb.dst = 3;
  gb.cls = TrafficClass::GuaranteedBandwidth;
  gb.reserved_rate = 0.3;
  gb.inject = traffic::InjectKind::Bernoulli;
  gb.inject_rate = 0.35;
  s.flows.push_back(gb);
  traffic::FlowSpec be;
  be.src = 1;
  be.dst = 3;
  be.inject = traffic::InjectKind::OnOff;
  be.inject_rate = 0.5;
  s.flows.push_back(be);
  traffic::FlowSpec gl;
  gl.src = 2;
  gl.dst = 3;
  gl.cls = TrafficClass::GuaranteedLatency;
  gl.inject = traffic::InjectKind::Bernoulli;
  gl.inject_rate = 0.02;
  s.flows.push_back(gl);
  s.gl_reservations.push_back({3, 0.05, 1});
  return s;
}

Scenario chaos_scenario() {
  Scenario s = sim_scenario();
  s.name = "determinism-chaos";
  s.faults.seed = 4242;
  s.faults.bitflip_rate = 0.002;
  s.faults.stuck_lanes.push_back({3, 1, true, 400});
  s.faults.port_kills.push_back({1, 600, 900});
  s.scrub_interval = 200;
  return s;
}

TEST(Determinism, SimPathTraceIsByteIdenticalAcrossRuns) {
  const Scenario s = sim_scenario();
  const std::string a = jsonl_trace(s);
  const std::string b = jsonl_trace(s);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Determinism, FuzzPathTraceIsByteIdenticalAcrossRuns) {
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Scenario s = generate_scenario(i, 2026);
    EXPECT_EQ(jsonl_trace(s), jsonl_trace(s)) << s.name;
  }
}

TEST(Determinism, ChaosPathTraceIsByteIdenticalAcrossRuns) {
  const Scenario s = chaos_scenario();
  const std::string a = jsonl_trace(s);
  // The fault schedule must itself be deterministic, so the traces match
  // event-for-event including every injected fault and scrub repair.
  EXPECT_NE(a.find("\"fault\""), std::string::npos)
      << "chaos scenario injected no faults — the test would be vacuous";
  EXPECT_EQ(a, jsonl_trace(s));
}

TEST(Determinism, GoldenTraceMatchesItselfAndDiffersAcrossSeeds) {
  Scenario s = sim_scenario();
  const std::string a = golden_trace(s);
  EXPECT_EQ(a, golden_trace(s));
  s.seed = 78;
  // Different seed, different injection draws, different trace — guards
  // against the trace accidentally ignoring the seed.
  EXPECT_NE(a, golden_trace(s));
}

// -- Fast-forward invariance ------------------------------------------------
//
// Idle-cycle fast-forward is a pure execution optimisation: the full JSONL
// event stream must be byte-identical with it on and off. The reference
// trace comes from the manual step() loop above (where fast-forward can
// never engage), so these tests prove run()'s clock jumps are invisible
// even against the most naive execution. (The KernelInvariance suite keeps
// its name from when it also swept interchangeable arbitration kernels.)

/// Like jsonl_trace() but drives the switch through run(), the only entry
/// point where fast-forward engages. Reports the cycles actually skipped.
std::string jsonl_trace_run(Scenario s, bool fast_forward,
                            Cycle* skipped = nullptr) {
  s.fast_forward = fast_forward;
  ScenarioRun rig = instantiate(s);
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Tracer tracer(sink);
  obs::SwitchProbe probe(s.radix);
  probe.set_tracer(&tracer);
  rig.sim->attach_probe(&probe);
  rig.sim->run(s.cycles);
  rig.sim->attach_probe(nullptr);
  tracer.finish();
  if (skipped != nullptr) *skipped = rig.sim->ff_skipped_cycles();
  return out.str();
}

void expect_trace_invariant(const Scenario& base) {
  const std::string ref = jsonl_trace(base);
  ASSERT_FALSE(ref.empty());
  for (const bool ff : {false, true}) {
    EXPECT_EQ(ref, jsonl_trace_run(base, ff))
        << base.name << " fast_forward=" << ff;
  }
}

/// sim_scenario() under GSF source regulation: the frame/barrier/quota
/// bookkeeping must survive fast-forward's retroactive frame catch-up.
Scenario gsf_scenario() {
  Scenario s = sim_scenario();
  s.name = "determinism-gsf";
  s.gsf.enabled = true;
  s.gsf.frame_cycles = 128;
  s.gsf.barrier_cycles = 8;
  return s;
}

TEST(KernelInvariance, SimAndChaosTracesIdenticalAcrossKernelAndFF) {
  expect_trace_invariant(sim_scenario());
  expect_trace_invariant(chaos_scenario());
}

TEST(KernelInvariance, GsfTracesIdenticalAcrossKernelAndFF) {
  expect_trace_invariant(gsf_scenario());
}

/// sim_scenario() re-run through a matching engine instead of the classic
/// single-request arbiters.
Scenario engine_scenario(arb::MatchKind kind) {
  Scenario s = sim_scenario();
  s.name = "determinism-engine-" + std::string(arb::match_kind_name(kind));
  s.matching_engine = kind;
  s.match_iterations = 3;
  return s;
}

TEST(KernelInvariance, EngineTracesIdenticalAcrossKernelAndFF) {
  // Every matching engine must be as fast-forward-invariant as the classic
  // path: the engine RNG stream advances only on non-quiescent
  // cycles, so skipped idle cycles leave it untouched.
  for (const auto kind : {arb::MatchKind::Islip, arb::MatchKind::Qps,
                          arb::MatchKind::SwQps, arb::MatchKind::Ssvc}) {
    expect_trace_invariant(engine_scenario(kind));
    if (HasFailure()) return;  // one divergent engine floods the log
  }
}

TEST(KernelInvariance, FuzzTracesIdenticalAcrossKernelAndFF) {
  for (std::uint64_t i = 0; i < 5; ++i) {
    expect_trace_invariant(generate_scenario(i, 2026));
    if (HasFailure()) return;  // one divergent scenario floods the log
  }
}

/// A workload idle ~97% of the time: two synchronized periodic BE flows
/// with long quiescent gaps between bursts (period 400) — the shape on
/// which fast-forward must genuinely engage.
Scenario sparse_scenario() {
  Scenario s;
  s.name = "determinism-sparse";
  s.seed = 9;
  s.cycles = 4000;
  s.radix = 8;
  for (std::uint32_t i = 0; i < 2; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 5;
    f.inject = traffic::InjectKind::Periodic;
    f.len_min = 8;
    f.len_max = 8;
    f.inject_rate = 0.02;
    s.flows.push_back(f);
  }
  return s;
}

TEST(KernelInvariance, FastForwardEngagesOnSparseTrafficWithoutTraceDrift) {
  // Here the clock genuinely jumps (ff_skipped_cycles > 0), so the equality
  // against the stepped reference is a non-vacuous proof that skipped idle
  // cycles touch no observable state.
  const Scenario s = sparse_scenario();
  const std::string ref = jsonl_trace(s);
  Cycle skipped = 0;
  const std::string ff_trace = jsonl_trace_run(s, true, &skipped);
  EXPECT_GT(skipped, s.cycles / 2)
      << "fast-forward never engaged — the invariance check is vacuous";
  EXPECT_EQ(ref, ff_trace);
  Cycle noff_skipped = 0;
  const std::string noff_trace = jsonl_trace_run(s, false, &noff_skipped);
  EXPECT_EQ(noff_skipped, 0u);
  EXPECT_EQ(ref, noff_trace);
}

/// sparse_scenario()'s synchronized periodic pair (one collision on output
/// 5 every 400 cycles) plus rare OnOff bursts: a BE flow into the same
/// output and a reserved GB flow to another. Output 5 carries no
/// reservation, so TDM's slot table serves every input there and the
/// switch drains between bursts under every arbiter.
Scenario sparse_bursty_scenario() {
  Scenario s = sparse_scenario();
  s.name = "determinism-sparse-bursty";
  s.cycles = 6000;
  traffic::FlowSpec gb;
  gb.src = 2;
  gb.dst = 6;
  gb.cls = TrafficClass::GuaranteedBandwidth;
  gb.reserved_rate = 0.2;
  gb.inject = traffic::InjectKind::OnOff;
  gb.inject_rate = 0.05;
  gb.mean_on_cycles = 20.0;
  gb.mean_off_cycles = 600.0;
  gb.len_min = 2;
  gb.len_max = 4;
  s.flows.push_back(gb);
  traffic::FlowSpec be = gb;
  be.src = 3;
  be.dst = 5;
  be.cls = TrafficClass::BestEffort;
  be.reserved_rate = 0.0;
  s.flows.push_back(be);
  return s;
}

struct BaselineRun {
  std::string trace;
  std::vector<std::uint64_t> counts;  // per flow: created, delivered, flits
  std::uint64_t grants = 0;
  Cycle skipped = 0;
};

/// `s` through run() under baseline arbiter `kind` (PVC with preemption on).
BaselineRun run_baseline(const Scenario& s, arb::Kind kind,
                         bool fast_forward) {
  sw::SwitchConfig c = s.build_config();
  c.mode = sw::ArbitrationMode::Baseline;
  c.baseline = kind;
  c.pvc.preemption = kind == arb::Kind::Pvc;
  c.fast_forward = fast_forward;
  sw::CrossbarSwitch sim(c, s.build_workload());
  std::ostringstream out;
  obs::JsonlSink sink(out);
  obs::Tracer tracer(sink);
  obs::SwitchProbe probe(s.radix);
  probe.set_tracer(&tracer);
  sim.attach_probe(&probe);
  sim.run(s.cycles);
  sim.attach_probe(nullptr);
  tracer.finish();
  BaselineRun r;
  r.trace = out.str();
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    r.counts.push_back(sim.created_packets(f));
    r.counts.push_back(sim.delivered_packets(f));
    r.counts.push_back(sim.throughput().flits(f));
  }
  r.grants = probe.metrics().counter_value("arb.grants");
  r.skipped = sim.ff_skipped_cycles();
  return r;
}

TEST(KernelInvariance, BaselineFastForwardMatchesSteppedRun) {
  // Every baseline arbiter jumps the quiescent stretches of a sparse,
  // bursty, contended workload: no arbiter changes state on a cycle without
  // requests, so the jumped run must equal the stepped one.
  const Scenario s = sparse_bursty_scenario();
  for (const arb::Kind kind :
       {arb::Kind::Lrg, arb::Kind::RoundRobin, arb::Kind::FixedPriority,
        arb::Kind::Age, arb::Kind::Wrr, arb::Kind::Dwrr, arb::Kind::Wfq,
        arb::Kind::VirtualClock, arb::Kind::MultiLevel, arb::Kind::Tdm,
        arb::Kind::Pvc}) {
    SCOPED_TRACE(arb::kind_name(kind));
    const BaselineRun stepped = run_baseline(s, kind, false);
    const BaselineRun jumped = run_baseline(s, kind, true);
    EXPECT_GT(stepped.grants, 20u) << "too few grants — vacuous";
    EXPECT_EQ(stepped.skipped, 0u);
    EXPECT_GT(jumped.skipped, s.cycles / 2) << "fast-forward never engaged";
    EXPECT_EQ(stepped.trace, jumped.trace);
    EXPECT_EQ(stepped.counts, jumped.counts);
    if (HasFailure()) return;  // one divergent arbiter floods the log
  }
}

TEST(KernelInvariance, FastForwardJumpsOverStochasticSources) {
  // Sparse Bernoulli and OnOff flows, one starting late: their injectors
  // pre-roll their streams, so the clock jumps between creations instead
  // of stepping every idle cycle to roll them, and the jumped trace still
  // equals the stepped reference.
  Scenario s;
  s.name = "determinism-sparse-stochastic";
  s.seed = 11;
  s.cycles = 6000;
  s.radix = 8;
  const traffic::InjectKind kinds[] = {traffic::InjectKind::Bernoulli,
                                       traffic::InjectKind::OnOff,
                                       traffic::InjectKind::Bernoulli};
  for (std::uint32_t i = 0; i < 3; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 4 + i % 2;
    f.inject = kinds[i];
    f.len_min = 2;
    f.len_max = 5;
    f.inject_rate = 0.004;
    f.mean_on_cycles = 30.0;
    f.mean_off_cycles = 300.0;
    s.flows.push_back(f);
  }
  s.flows[2].start_cycle = 2500;

  const std::string ref = jsonl_trace(s);
  ASSERT_NE(ref.find("\"grant\""), std::string::npos)
      << "no packet was granted — the invariance check is vacuous";
  ASSERT_NE(ref.find("\"ev\":\"create\",\"cls\":\"BE\",\"in\":2,"),
            std::string::npos)
      << "the late-starting flow created nothing";
  Cycle skipped = 0;
  EXPECT_EQ(ref, jsonl_trace_run(s, true, &skipped));
  EXPECT_GT(skipped, s.cycles / 2);
}

TEST(KernelInvariance, FastForwardEngagesOnFaultedSparseScenario) {
  // Sparse periodic traffic plus the full fault stack (bitflip process,
  // stuck lane, port outage, periodic scrubber). Before the event-horizon
  // fast-forward this configuration was flatly ineligible; now the clock
  // must genuinely jump between the plan's events (skipped > 0) while the
  // trace — faults, repairs and quarantines included — stays byte-identical
  // to the fully stepped run.
  Scenario s = sparse_scenario();
  s.name = "determinism-faulted-sparse";
  s.cycles = 6000;
  s.faults.seed = 777;
  s.faults.bitflip_rate = 0.001;
  s.faults.stuck_lanes.push_back({5, 1, true, 900});
  s.faults.port_kills.push_back({1, 1500, 2500});
  s.scrub_interval = 400;

  const std::string ref = jsonl_trace(s);
  EXPECT_NE(ref.find("\"fault\""), std::string::npos)
      << "no faults fired — the invariance check is vacuous";
  Cycle skipped = 0;
  const std::string ff_trace = jsonl_trace_run(s, true, &skipped);
  EXPECT_GT(skipped, 0u)
      << "fast-forward never engaged on the faulted sparse scenario";
  EXPECT_EQ(ref, ff_trace);
  Cycle noff_skipped = 0;
  EXPECT_EQ(ref, jsonl_trace_run(s, false, &noff_skipped));
  EXPECT_EQ(noff_skipped, 0u);
}

TEST(KernelInvariance, FastForwardEngagesUnderConformanceMonitor) {
  // The sparse run again with a probe + QoS conformance monitor attached
  // (the --monitor plane): the monitor's on_clock_jump coalesces whole
  // skipped windows, so fast-forward stays engaged and every verdict —
  // window counts, violation counts, the full event trace — matches the
  // stepped run.
  const Scenario base = sparse_scenario();
  struct MonRun {
    std::string trace;
    std::uint64_t windows = 0;
    std::uint64_t violations = 0;
    Cycle skipped = 0;
  };
  const auto run_monitored = [&](bool ff) {
    Scenario v = base;
    v.fast_forward = ff;
    ScenarioRun rig = instantiate(v);
    std::ostringstream out;
    obs::JsonlSink sink(out);
    obs::Tracer tracer(sink);
    obs::SwitchProbe probe(v.radix);
    probe.set_tracer(&tracer);
    obs::ConformanceMonitor monitor(sw::make_conformance_config(
        rig.sim->config(), rig.sim->workload(), /*window=*/256));
    probe.set_extra_sink(&monitor);
    rig.sim->attach_probe(&probe);
    rig.sim->run(v.cycles);
    monitor.finalize(rig.sim->now());
    rig.sim->attach_probe(nullptr);
    tracer.finish();
    MonRun r;
    r.trace = out.str();
    r.windows = monitor.windows_total();
    r.violations = monitor.violations(obs::ViolationKind::GbShare) +
                   monitor.violations(obs::ViolationKind::GlLatency) +
                   monitor.violations(obs::ViolationKind::BeStarvation);
    r.skipped = rig.sim->ff_skipped_cycles();
    return r;
  };
  const MonRun ref = run_monitored(false);
  ASSERT_GT(ref.windows, 0u) << "monitor judged no windows — vacuous";
  EXPECT_EQ(ref.skipped, 0u);
  const MonRun ff = run_monitored(true);
  EXPECT_GT(ff.skipped, 0u) << "fast-forward never engaged under the monitor";
  EXPECT_EQ(ref.trace, ff.trace);
  EXPECT_EQ(ref.windows, ff.windows);
  EXPECT_EQ(ref.violations, ff.violations);
}

// -- Determinism under parallelism -----------------------------------------
//
// The --jobs campaign and the sweep benches promise byte-identical results
// at any thread count: scenario generation and execution depend only on
// (index, base_seed), and exec::run_batch stores results by index. These
// tests replay a 100-scenario campaign and a trace corpus serially and on
// an 8-thread pool and require identical output.

/// Everything a campaign verdict consists of, per scenario.
struct Verdict {
  bool failed = false;
  std::string kind;
  Cycle fail_cycle = 0;
  std::uint64_t grants_checked = 0;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;       // conformance totals (monitor runs)
  std::uint64_t windows_checked = 0;  // judged windows (monitor runs)

  bool operator==(const Verdict&) const = default;
};

std::vector<Verdict> run_campaign(unsigned threads, std::uint64_t count,
                                  std::uint64_t base_seed,
                                  bool fast_forward = true,
                                  bool monitor = false) {
  exec::ThreadPool pool(threads);
  return exec::run_batch<Verdict>(pool, count, [&](std::size_t i) {
    Scenario s = generate_scenario(i, base_seed);
    s.fast_forward = fast_forward;
    CheckOptions opts;
    opts.monitor = monitor;
    const RunResult r = run_scenario(s, opts);
    return Verdict{r.failed,
                   r.kind,
                   r.fail_cycle,
                   r.grants_checked,
                   r.delivered,
                   r.violations_gb + r.violations_gl + r.violations_be,
                   r.windows_checked};
  });
}

TEST(DeterminismParallel, HundredScenarioCampaignIdenticalAtJobs1And8) {
  const auto serial = run_campaign(1, 100, 99);
  const auto parallel = run_campaign(8, 100, 99);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "scenario " << i;
  }
  // Every scenario of a healthy build passes; a campaign of 100 all-failing
  // verdicts comparing equal would be vacuous.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].failed) << "scenario " << i << ": "
                                   << serial[i].kind;
  }
}

TEST(DeterminismParallel, HundredScenarioCampaignIdenticalAcrossKernelAndFF) {
  // The fuzz campaign's verdicts (fail/pass, failure site, grant and
  // delivery counts) must not depend on whether idle cycles were
  // fast-forwarded. The default (FF on) is the reference; the fully stepped
  // run must agree scenario by scenario. (The name dates from when the test
  // also swept interchangeable arbitration kernels.)
  const auto fast = run_campaign(4, 100, 99);
  const auto slow = run_campaign(4, 100, 99, /*fast_forward=*/false);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], slow[i]) << "scenario " << i;
    EXPECT_FALSE(fast[i].failed) << "scenario " << i << ": " << fast[i].kind;
  }
}

TEST(DeterminismParallel, TwoHundredMonitoredScenarioCampaignIdenticalAcrossFF) {
  // Fast-forward vs fully stepped with the conformance monitor attached to
  // every scenario: the verdicts — failure sites, grant and delivery counts,
  // judged windows, violation totals — must agree scenario for scenario.
  const auto ff = run_campaign(4, 200, 424242, /*fast_forward=*/true,
                               /*monitor=*/true);
  const auto noff = run_campaign(4, 200, 424242, /*fast_forward=*/false,
                                 /*monitor=*/true);
  ASSERT_EQ(ff.size(), 200u);
  std::uint64_t windows = 0;
  for (std::size_t i = 0; i < ff.size(); ++i) {
    EXPECT_EQ(ff[i], noff[i]) << "scenario " << i;
    EXPECT_FALSE(ff[i].failed) << "scenario " << i << ": " << ff[i].kind;
    windows += ff[i].windows_checked;
  }
  EXPECT_GT(windows, 0u) << "no conformance windows judged — the monitored "
                            "leg of this sweep is vacuous";
}

TEST(DeterminismParallel, GoldenTraceCorpusIdenticalUnderPool) {
  // Golden traces rendered inside pool workers must equal the serially
  // rendered ones byte for byte (the property the corpus refresh workflow
  // relies on when run with --jobs).
  constexpr std::uint64_t kCount = 8;
  std::vector<std::string> serial;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    serial.push_back(golden_trace(generate_scenario(i, 2026)));
  }
  exec::ThreadPool pool(8);
  const auto parallel = exec::run_batch<std::string>(
      pool, kCount,
      [](std::size_t i) { return golden_trace(generate_scenario(i, 2026)); });
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i]) << "scenario " << i;
  }
}

TEST(DeterminismParallel, EngineScenarioTracesIdenticalUnderPool) {
  // The engine scenarios of the golden corpus are refreshed with --jobs like
  // every other scenario: rendering them inside pool workers must be
  // byte-identical to the serial render, for all four engines at once.
  const std::vector<arb::MatchKind> kinds = {
      arb::MatchKind::Islip, arb::MatchKind::Qps, arb::MatchKind::SwQps,
      arb::MatchKind::Ssvc};
  std::vector<std::string> serial;
  for (const auto kind : kinds) {
    serial.push_back(golden_trace(engine_scenario(kind)));
  }
  exec::ThreadPool pool(8);
  const auto parallel = exec::run_batch<std::string>(
      pool, kinds.size(),
      [&](std::size_t i) { return golden_trace(engine_scenario(kinds[i])); });
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    ASSERT_FALSE(serial[i].empty());
    EXPECT_EQ(serial[i], parallel[i])
        << arb::match_kind_name(kinds[i]);
  }
}

// -- Baseline-arbiter pins --------------------------------------------------
//
// Scenarios force SSVC, so no golden trace covers the class-blind baseline
// arbiters — yet they share request selection and admission with it. One
// fixed overloaded radix-16 workload per baseline kind pins their per-flow
// outcome (created, delivered, flits, wait) and, with a probe attached, the
// admission-blocked and request counters. The hashes were recorded once and
// must never be edited to follow a change in selection or admission.

sw::SwitchConfig baseline_config(arb::Kind kind) {
  sw::SwitchConfig c;
  c.radix = 16;
  c.mode = sw::ArbitrationMode::Baseline;
  c.baseline = kind;
  c.pvc.preemption = kind == arb::Kind::Pvc;
  c.buffers.be_flits = 12;
  c.buffers.gb_flits_per_output = 8;
  c.buffers.gl_flits = 6;
  c.seed = 2718;
  return c;
}

/// Eight GB senders oversubscribe output 0 (2x their reservations) next to
/// two GL senders, BE to output 0 and a BE ring over the other outputs; a
/// few inputs carry a second flow so admission round-robins and selection
/// chooses between classes and outputs.
traffic::Workload baseline_workload() {
  traffic::Workload w(16);
  const auto add = [&w](InputId src, OutputId dst, TrafficClass cls,
                        double reserved, double rate, std::uint32_t len_min,
                        std::uint32_t len_max, std::uint32_t prio) {
    traffic::FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.cls = cls;
    f.reserved_rate = reserved;
    f.inject_rate = rate;
    f.len_min = len_min;
    f.len_max = len_max;
    f.legacy_priority = prio;
    f.inject = src % 3 == 2 ? traffic::InjectKind::OnOff
                            : traffic::InjectKind::Bernoulli;
    w.add_flow(f);
  };
  for (InputId i = 0; i < 8; ++i) {
    add(i, 0, TrafficClass::GuaranteedBandwidth, 0.1, 0.2, 2, 6, i % 4);
  }
  add(8, 0, TrafficClass::GuaranteedLatency, 0, 0.03, 1, 2, 3);
  add(9, 0, TrafficClass::GuaranteedLatency, 0, 0.03, 1, 2, 3);
  w.set_gl_reservation(0, 0.08, 2);
  add(10, 0, TrafficClass::BestEffort, 0, 0.3, 1, 8, 0);
  add(11, 0, TrafficClass::BestEffort, 0, 0.3, 1, 8, 1);
  for (InputId i = 8; i < 16; ++i) {
    add(i, static_cast<OutputId>(1 + (i * 5) % 15), TrafficClass::BestEffort,
        0, 0.35, 1, 8, i % 4);
  }
  add(0, 5, TrafficClass::GuaranteedBandwidth, 0.2, 0.3, 4, 4, 2);
  add(1, 7, TrafficClass::BestEffort, 0, 0.2, 2, 3, 1);
  add(3, 9, TrafficClass::GuaranteedLatency, 0, 0.02, 1, 1, 3);
  w.set_gl_reservation(9, 0.05, 1);
  return w;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Per-flow outcome hash of one warmed-up, measured run of the baseline
/// workload; with a probe, the probe's admission-blocked and request
/// counters are folded in.
std::uint64_t baseline_hash(arb::Kind kind, bool with_probe) {
  sw::CrossbarSwitch sim(baseline_config(kind), baseline_workload());
  obs::SwitchProbe probe(16);
  if (with_probe) sim.attach_probe(&probe);
  sim.warmup(2000);
  sim.measure(20000);
  Fnv h;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    h.add(sim.created_packets(f));
    h.add(sim.delivered_packets(f));
    h.add(sim.throughput().flits(f));
    const auto& wait = sim.wait().flow_summary(f);
    h.add(wait.count());
    h.add(wait.sum());
    h.add(wait.max());
  }
  if (with_probe) {
    h.add(probe.metrics().counter_value("switch.admit.blocked"));
    h.add(probe.metrics().counter_value("switch.requests"));
    sim.attach_probe(nullptr);
  }
  return h.h;
}

TEST(Determinism, BaselineArbitersMatchPinnedHashes) {
  struct Pin {
    arb::Kind kind;
    std::uint64_t bare;
    std::uint64_t probed;
  };
  const Pin pins[] = {
      {arb::Kind::Lrg, 0x367477ecd4986122ULL, 0x693a43041cd08c5eULL},
      {arb::Kind::Wrr, 0x46b94b675bbb5187ULL, 0xdd8302ea9431ef9bULL},
      {arb::Kind::Dwrr, 0x436cf76c941f58c6ULL, 0xd34c6d79e8b660a5ULL},
      {arb::Kind::Tdm, 0x9b9482f862298caeULL, 0x0b00e7d0b73c7f7eULL},
      {arb::Kind::MultiLevel, 0x55ff66c003be3c91ULL, 0x76fdc60634ddbccbULL},
      {arb::Kind::Pvc, 0xc9ffb48799fcb32cULL, 0x01183a4217a54585ULL},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(baseline_hash(p.kind, false), p.bare)
        << arb::kind_name(p.kind) << std::hex << " bare 0x"
        << baseline_hash(p.kind, false);
    EXPECT_EQ(baseline_hash(p.kind, true), p.probed)
        << arb::kind_name(p.kind) << std::hex << " probed 0x"
        << baseline_hash(p.kind, true);
  }
}

}  // namespace
}  // namespace ssq::check
