// Seeded-determinism regression: equal seeds must produce byte-identical
// trace output across independent runs, for the plain simulation path, the
// fuzz-generated path, and the chaos (fault-injected + scrubbed) path. This
// is the property every other test leans on — replayable repros, the golden
// corpus, `--fault-seed` chaos replays — so it gets its own regression.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

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

// -- Kernel and fast-forward invariance -------------------------------------
//
// The bit-sliced kernel and idle-cycle fast-forward are pure execution
// optimisations: the full JSONL event stream must be byte-identical across
// {scalar, bitsliced} x {fast-forward on, off}. The reference trace comes
// from the manual step() loop above (where fast-forward can never engage),
// so these tests prove run()'s clock jumps are invisible even against the
// most naive execution.

/// Like jsonl_trace() but drives the switch through run(), the only entry
/// point where fast-forward engages. Reports the cycles actually skipped.
std::string jsonl_trace_run(Scenario s, core::ArbKernel kernel,
                            bool fast_forward, Cycle* skipped = nullptr) {
  s.kernel = kernel;
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
  Scenario stepped = base;
  stepped.kernel = core::ArbKernel::Scalar;
  const std::string ref = jsonl_trace(stepped);
  ASSERT_FALSE(ref.empty());
  for (const auto kernel :
       {core::ArbKernel::Scalar, core::ArbKernel::Bitsliced,
        core::ArbKernel::Simd}) {
    for (const bool ff : {false, true}) {
      EXPECT_EQ(ref, jsonl_trace_run(base, kernel, ff))
          << base.name << " kernel=" << core::to_string(kernel)
          << " fast_forward=" << ff;
    }
  }
}

/// sim_scenario() under GSF source regulation: the frame/barrier/quota
/// bookkeeping must survive kernel swaps and fast-forward's retroactive
/// frame catch-up.
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
  // Every matching engine must be as kernel- and fast-forward-invariant as
  // the classic path: the engine RNG stream advances only on non-quiescent
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
  Scenario stepped = s;
  stepped.kernel = core::ArbKernel::Scalar;
  const std::string ref = jsonl_trace(stepped);
  Cycle skipped = 0;
  const std::string ff_trace =
      jsonl_trace_run(s, core::ArbKernel::Bitsliced, true, &skipped);
  EXPECT_GT(skipped, s.cycles / 2)
      << "fast-forward never engaged — the invariance check is vacuous";
  EXPECT_EQ(ref, ff_trace);
  Cycle noff_skipped = 0;
  const std::string noff_trace =
      jsonl_trace_run(s, core::ArbKernel::Bitsliced, false, &noff_skipped);
  EXPECT_EQ(noff_skipped, 0u);
  EXPECT_EQ(ref, noff_trace);
  // The SIMD kernel through the same genuinely-engaging fast-forward run.
  Cycle simd_skipped = 0;
  const std::string simd_trace =
      jsonl_trace_run(s, core::ArbKernel::Simd, true, &simd_skipped);
  EXPECT_GT(simd_skipped, s.cycles / 2);
  EXPECT_EQ(ref, simd_trace);
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

  Scenario stepped = s;
  stepped.kernel = core::ArbKernel::Scalar;
  const std::string ref = jsonl_trace(stepped);
  EXPECT_NE(ref.find("\"fault\""), std::string::npos)
      << "no faults fired — the invariance check is vacuous";
  Cycle skipped = 0;
  const std::string ff_trace =
      jsonl_trace_run(s, core::ArbKernel::Bitsliced, true, &skipped);
  EXPECT_GT(skipped, 0u)
      << "fast-forward never engaged on the faulted sparse scenario";
  EXPECT_EQ(ref, ff_trace);
  Cycle noff_skipped = 0;
  EXPECT_EQ(ref, jsonl_trace_run(s, core::ArbKernel::Bitsliced, false,
                                 &noff_skipped));
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

std::vector<Verdict> run_campaign(
    unsigned threads, std::uint64_t count, std::uint64_t base_seed,
    core::ArbKernel kernel = core::ArbKernel::Bitsliced,
    bool fast_forward = true, bool monitor = false) {
  exec::ThreadPool pool(threads);
  return exec::run_batch<Verdict>(pool, count, [&](std::size_t i) {
    Scenario s = generate_scenario(i, base_seed);
    s.kernel = kernel;
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
  // delivery counts) must not depend on which kernel ran or whether idle
  // cycles were fast-forwarded. The fastest configuration (bitsliced + FF,
  // the default) is the reference; the slowest (scalar, no FF) must agree
  // scenario by scenario.
  const auto fast = run_campaign(4, 100, 99);
  const auto slow =
      run_campaign(4, 100, 99, core::ArbKernel::Scalar, /*fast_forward=*/false);
  const auto simd =
      run_campaign(4, 100, 99, core::ArbKernel::Simd, /*fast_forward=*/true);
  ASSERT_EQ(fast.size(), slow.size());
  ASSERT_EQ(fast.size(), simd.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], slow[i]) << "scenario " << i;
    EXPECT_EQ(fast[i], simd[i]) << "scenario " << i << " (simd kernel)";
    EXPECT_FALSE(fast[i].failed) << "scenario " << i << ": " << fast[i].kind;
  }
}

TEST(DeterminismParallel, TwoHundredMonitoredScenarioCampaignIdenticalAcrossFF) {
  // Fast-forward vs fully stepped with the conformance monitor attached to
  // every scenario: the verdicts — failure sites, grant and delivery counts,
  // judged windows, violation totals — must agree scenario for scenario.
  const auto ff = run_campaign(4, 200, 424242, core::ArbKernel::Bitsliced,
                               /*fast_forward=*/true, /*monitor=*/true);
  const auto noff = run_campaign(4, 200, 424242, core::ArbKernel::Bitsliced,
                                 /*fast_forward=*/false, /*monitor=*/true);
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

}  // namespace
}  // namespace ssq::check
