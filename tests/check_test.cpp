// Tests for src/check/: the differential oracle, the scenario fuzzer, the
// shrinker, and — crucially — the self-test that a deliberately planted
// defect in the reference model is caught and shrunk to a tiny repro. A
// checker that never fires is worse than none.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arb/matching.hpp"
#include "check/differential.hpp"
#include "check/reference.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/trace.hpp"
#include "sim/error.hpp"
#include "traffic/workload.hpp"

namespace ssq::check {
namespace {

constexpr std::uint64_t kCampaignSeed = 12345;

/// First generated scenario (index < limit) that fails under `opts`.
Scenario find_failing(const CheckOptions& opts, std::uint64_t limit) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    Scenario s = generate_scenario(i, kCampaignSeed);
    if (run_scenario(s, opts).failed) return s;
  }
  ADD_FAILURE() << "no generated scenario tripped the planted bug in "
                << limit << " tries";
  return generate_scenario(0, kCampaignSeed);
}

TEST(Differential, RandomScenariosAgreeThreeWays) {
  std::uint64_t grants = 0;
  for (std::uint64_t i = 0; i < 25; ++i) {
    const Scenario s = generate_scenario(i, kCampaignSeed);
    const RunResult r = run_scenario(s);
    EXPECT_FALSE(r.failed) << s.name << ": " << r.kind << " at cycle "
                           << r.fail_cycle << "\n" << r.detail;
    grants += r.grants_checked;
  }
  // The campaign must actually exercise arbitration, not vacuously pass.
  EXPECT_GT(grants, 1000u);
}

TEST(Differential, FaultedScenariosKeepInvariantChecks) {
  // Find a generated scenario that carries a fault plan; the checker must
  // drop to invariants-only (no oracle false positives) yet still verify
  // grant uniqueness and packet conservation.
  for (std::uint64_t i = 0; i < 50; ++i) {
    Scenario s = generate_scenario(i, kCampaignSeed);
    if (!s.has_faults()) continue;
    ScenarioRun rig = instantiate(s);
    DifferentialChecker checker(*rig.sim);
    EXPECT_FALSE(checker.options().differential);
    EXPECT_TRUE(checker.run(s.cycles))
        << checker.divergence()->kind << "\n" << checker.divergence()->detail;
    return;
  }
  FAIL() << "no generated scenario carried a fault plan in 50 tries";
}

TEST(Differential, ChecksEveryGrantOfACleanRun) {
  // Find a generated scenario on the classic single-request path (engine
  // scenarios run invariants-only and would make this vacuous).
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Scenario s = generate_scenario(i, kCampaignSeed);
    if (s.has_faults() || s.matching_engine != arb::MatchKind::None) continue;
    ScenarioRun rig = instantiate(s);
    DifferentialChecker checker(*rig.sim);
    ASSERT_TRUE(checker.run(s.cycles));
    EXPECT_TRUE(checker.options().differential);
    EXPECT_GT(checker.grants_checked(), 0u);
    return;
  }
  FAIL() << "no clean engine-free scenario generated in 50 tries";
}

TEST(Differential, EveryMatchingEngineRunsCleanUnderInvariants) {
  // The engine knob forced onto the same handful of generated scenarios:
  // every engine must pass the invariant checks (grant uniqueness, packet
  // conservation, progress) on traffic it did not pick itself.
  std::uint64_t grants = 0;
  for (const auto kind : {arb::MatchKind::Islip, arb::MatchKind::Qps,
                          arb::MatchKind::SwQps, arb::MatchKind::Ssvc}) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      Scenario s = generate_scenario(i, kCampaignSeed);
      s.matching_engine = kind;
      s.match_iterations = 2;
      s.packet_chaining = false;
      const RunResult r = run_scenario(s);
      EXPECT_FALSE(r.failed)
          << s.name << " on " << arb::match_kind_name(kind) << ": " << r.kind
          << " at cycle " << r.fail_cycle << "\n" << r.detail;
      grants += r.grants_checked;
    }
  }
  EXPECT_GT(grants, 1000u) << "engine sweep exercised too little arbitration";
}

class PlantedBugP : public ::testing::TestWithParam<PlantedBug> {};

TEST_P(PlantedBugP, IsCaughtByTheFuzzer) {
  CheckOptions opts;
  opts.bug = GetParam();
  bool caught = false;
  for (std::uint64_t i = 0; i < 60 && !caught; ++i) {
    const Scenario s = generate_scenario(i, kCampaignSeed);
    caught = run_scenario(s, opts).failed;
  }
  EXPECT_TRUE(caught) << "planted bug '" << to_string(GetParam())
                      << "' survived 60 scenarios undetected";
}

INSTANTIATE_TEST_SUITE_P(
    AllBugs, PlantedBugP,
    ::testing::Values(PlantedBug::GbVtickOffByOne,
                      PlantedBug::LrgNoMoveToBack,
                      PlantedBug::GlAllowanceOffByOne,
                      PlantedBug::SkipEpochWrap,
                      PlantedBug::EngineStarve),
    [](const auto& pinfo) { return std::string(to_string(pinfo.param)); });

TEST(Shrink, OffByOneShrinksToATinyRepro) {
  CheckOptions opts;
  opts.bug = PlantedBug::GbVtickOffByOne;
  const Scenario failing = find_failing(opts, 60);

  const ShrinkResult sh = shrink(failing, opts);
  EXPECT_LE(sh.scenario.cycles, 10u) << "shrunk repro still "
                                     << sh.scenario.cycles << " cycles";
  EXPECT_LE(sh.scenario.flows.size(), 2u);
  EXPECT_TRUE(sh.failure.failed);

  // The minimised scenario must still reproduce, including after a
  // serialise/parse round trip (that file is what gets committed).
  std::ostringstream out;
  write_scenario(out, sh.scenario);
  std::istringstream in(out.str());
  const Scenario reloaded = parse_scenario(in, "repro");
  EXPECT_TRUE(run_scenario(reloaded, opts).failed);
  // ...and pass once the defect is gone: the repro blames the bug, not the
  // scenario.
  EXPECT_FALSE(run_scenario(reloaded).failed);
}

TEST(Scenario, SerialisationRoundTripsExactly) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Scenario s = generate_scenario(i, 0xfeedULL);
    std::ostringstream first;
    write_scenario(first, s);
    std::istringstream in(first.str());
    const Scenario back = parse_scenario(in, "round-trip");
    std::ostringstream second;
    write_scenario(second, back);
    // Byte-equal re-serialisation covers every field, including u64 seeds
    // (which would not survive a double round trip) and full-precision
    // rates.
    EXPECT_EQ(first.str(), second.str()) << "scenario " << i;
    EXPECT_EQ(s.seed, back.seed);
    EXPECT_EQ(s.faults.seed, back.faults.seed);
  }
}

TEST(Scenario, GeneratorIsDeterministic) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::ostringstream a, b;
    write_scenario(a, generate_scenario(i, 42));
    write_scenario(b, generate_scenario(i, 42));
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(Scenario, ParserRejectsGarbageWithContext) {
  std::istringstream bad("scenario name=x seed=1 cycles=10\nradix 8\n"
                         "flow src=0 dst=99 class=be inject=bernoulli "
                         "load=0.1\n");
  EXPECT_THROW(
      { [[maybe_unused]] auto s = parse_scenario(bad, "bad"); }, ConfigError);
  std::istringstream junk("wibble a=1\n");
  EXPECT_THROW({ [[maybe_unused]] auto s = parse_scenario(junk, "junk"); },
               ConfigError);

  // Each malformed line must be rejected, naming the field, not wrapped,
  // truncated or ignored.
  const auto rejects = [](const std::string& text, const std::string& needle) {
    std::istringstream in(text);
    try {
      [[maybe_unused]] auto s = parse_scenario(in, "bad");
      ADD_FAILURE() << "accepted; expected an error naming " << needle;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  const std::string head = "scenario name=x seed=1 cycles=10\nradix 8\n";
  rejects("scenario name=x seed=1 cycles=-5\nradix 8\n", "'cycles'");
  rejects(head + "ssvc level_bits=4294967299\n", "'level_bits'");
  rejects("scenario name=x seed=1 cycles=10\nradix 8x\n", "radix '8x'");
  rejects(head + "flow src=0 dst=3 load=0.1 strat=300\n", "'strat'");
  rejects(head + "flow src=0 dst=3 load=0.1 src=6\n", "'src' given twice");
}

TEST(Reference, LrgStartsInPortOrderAndMovesToBack) {
  core::SsvcParams params;
  ReferenceOutput ref(4, params, core::OutputAllocation::none(4),
                      core::GlPolicing::Stall, 32);
  ref.advance_to(0);
  const core::ClassRequest reqs[] = {{1, TrafficClass::BestEffort, 1},
                                     {2, TrafficClass::BestEffort, 1}};
  EXPECT_EQ(ref.pick(reqs, 0).winner, 1u);  // lowest index most preferred
  ref.on_grant(1, TrafficClass::BestEffort, 0);
  EXPECT_EQ(ref.pick(reqs, 0).winner, 2u);  // 1 moved to the back
  EXPECT_EQ(ref.lrg_rank(1), 3u);
}

// -- Version-gated state compare ------------------------------------------
//
// compare_state re-walks an output's per-input state only when
// OutputQosArbiter::state_version() or ReferenceOutput::version() moved.
// That is exact only if every write to compared state bumps the counter;
// these tests pin that, and that a write the gate must see is caught.

/// Everything the deep compare reads from one simulator output, flattened
/// into `out`: per input the counter value, logical and sensed level and
/// LRG row, then the GL clock and the epoch base. The checker advances an
/// arbiter only on cycles it compares it, so the base is read directly
/// rather than derived from the current cycle and a possibly stale rt.
void capture(const core::OutputQosArbiter& arb,
             std::vector<std::uint64_t>& out) {
  const std::uint32_t n = arb.radix();
  out.resize(4 * n + 2);
  for (InputId i = 0; i < n; ++i) {
    out[4 * i] = arb.aux_vc(i).value();
    out[4 * i + 1] = arb.gb_level(i);
    out[4 * i + 2] = arb.sensed_gb_level(i);
    out[4 * i + 3] = arb.lrg().row(i);
  }
  out[4 * n] = arb.gl_tracker().clock();
  out[4 * n + 1] = arb.epoch_base();
}

/// Everything the deep compare reads from one reference output: per input
/// the counter value, then the LRG order and the GL clock.
void capture(const ReferenceOutput& ref, std::vector<std::uint64_t>& out) {
  out.clear();
  for (InputId i = 0; i < ref.radix(); ++i) out.push_back(ref.value(i));
  out.insert(out.end(), ref.lrg_order().begin(), ref.lrg_order().end());
  out.push_back(ref.gl_clock());
}

TEST(VersionGate, UnchangedVersionImpliesUnchangedState) {
  // Steps a differential subset of the generated campaign one cycle at a
  // time. Whenever an output's version stands still across a cycle, its
  // compared state must too, on both sides. The one exception is the
  // simulator's epoch base: a wrap that finds every counter a clean zero
  // moves it without a bump, and the checker compares the rt it implies on
  // every epoch sweep, outside the gate.
  std::uint64_t scenarios = 0;
  std::uint64_t held = 0;   // output-cycles where neither version moved
  std::uint64_t moved = 0;  // output-cycles where a version moved
  std::uint64_t silent_wraps = 0;  // held simulator versions, base moved
  std::vector<std::uint64_t> now;
  for (std::uint64_t i = 0; scenarios < 150; ++i) {
    ASSERT_LT(i, 1000u) << "too few differential scenarios generated";
    const Scenario s = generate_scenario(i, kCampaignSeed);
    if (s.has_faults() || s.matching_engine != arb::MatchKind::None) continue;
    ++scenarios;
    ScenarioRun rig = instantiate(s);
    const sw::CrossbarSwitch& sim = *rig.sim;
    DifferentialChecker checker(*rig.sim);
    ASSERT_TRUE(checker.options().differential) << s.name;

    std::vector<std::vector<std::uint64_t>> sim_prev(s.radix);
    std::vector<std::vector<std::uint64_t>> ref_prev(s.radix);
    std::vector<std::uint64_t> sim_ver(s.radix);
    std::vector<std::uint64_t> ref_ver(s.radix);
    for (Cycle c = 0; c < s.cycles; ++c) {
      const Cycle t = sim.now();
      ASSERT_TRUE(checker.step())
          << s.name << ": " << checker.divergence()->kind << "\n"
          << checker.divergence()->detail;
      for (OutputId o = 0; o < s.radix; ++o) {
        const core::OutputQosArbiter& arb = sim.qos_arbiter(o);
        const ReferenceOutput& ref = checker.reference(o);
        const bool sim_held = c > 0 && arb.state_version() == sim_ver[o];
        const bool ref_held = c > 0 && ref.version() == ref_ver[o];
        capture(arb, now);
        if (sim_held) {
          const std::vector<std::uint64_t>& prev = sim_prev[o];
          const std::size_t base = now.size() - 1;  // the epoch-base slot
          ASSERT_TRUE(std::equal(now.begin(), std::prev(now.end()),
                                 prev.begin(), std::prev(prev.end())))
              << s.name << " output " << o << " cycle " << t
              << ": simulator state changed under an unchanged version";
          if (now[base] != prev[base]) {
            ++silent_wraps;
            for (InputId in = 0; in < s.radix; ++in) {
              ASSERT_EQ(now[4 * in], 0u) << s.name << " output " << o
                                         << " cycle " << t << " input " << in
                                         << ": base moved over a live value";
              ASSERT_EQ(now[4 * in + 1], 0u) << s.name << " input " << in;
              ASSERT_EQ(now[4 * in + 2], 0u) << s.name << " input " << in;
            }
          }
        }
        std::swap(now, sim_prev[o]);
        capture(ref, now);
        if (ref_held) {
          ASSERT_EQ(now, ref_prev[o])
              << s.name << " output " << o << " cycle " << t
              << ": reference state changed under an unchanged version";
        }
        std::swap(now, ref_prev[o]);
        if (c > 0) ++(sim_held && ref_held ? held : moved);
        sim_ver[o] = arb.state_version();
        ref_ver[o] = ref.version();
      }
    }
  }
  // Both branches of the gate, and a base moving under a held version, must
  // be exercised for the property to bite.
  EXPECT_GT(held, 0u);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(silent_wraps, 0u);
}

/// Radix-8 SSVC switch whose traffic all goes to output 0: output 7 is
/// never requested or granted, so only epoch wraps write its state.
sw::CrossbarSwitch idle_output_switch() {
  sw::SwitchConfig config;
  config.radix = 8;
  traffic::Workload w(8);
  for (InputId i = 0; i < 4; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = i < 2 ? TrafficClass::GuaranteedBandwidth
                  : TrafficClass::BestEffort;
    f.reserved_rate = i < 2 ? 0.3 : 0.0;
    f.len_min = f.len_max = 4;
    f.inject_rate = 0.05;
    w.add_flow(f);
  }
  return sw::CrossbarSwitch(config, std::move(w));
}

/// Steps a checked idle_output_switch 100 cycles, applies `tamper` to output
/// 7, and expects the very next step to report a state mismatch there.
void expect_tamper_caught(
    const std::function<void(core::OutputQosArbiter&)>& tamper,
    const std::string& what) {
  sw::CrossbarSwitch sim = idle_output_switch();
  DifferentialChecker checker(sim);
  ASSERT_TRUE(checker.options().differential);
  ASSERT_TRUE(checker.run(100));
  const Cycle t = sim.now();
  // No epoch wrap at t: only the tamper itself can move output 7's version.
  ASSERT_NE(t % sim.config().ssvc.epoch_cycles(), 0u);
  tamper(sim.qos_arbiter(7));
  EXPECT_FALSE(checker.step());
  ASSERT_TRUE(checker.divergence().has_value()) << what << " went unnoticed";
  EXPECT_EQ(checker.divergence()->kind, "state_mismatch");
  EXPECT_EQ(checker.divergence()->cycle, t);
  EXPECT_EQ(checker.divergence()->output, 7u);
  EXPECT_NE(checker.divergence()->detail.find(what), std::string::npos)
      << checker.divergence()->detail;
}

TEST(VersionGate, CatchesARegisterBitFlipOnAnUngrantedOutput) {
  expect_tamper_caught(
      [](core::OutputQosArbiter& arb) { arb.aux_vc_mut(3).fault_flip_value(2); },
      "auxVC[3] value");
}

TEST(VersionGate, CatchesAnLrgRankSwapOnAnUngrantedOutput) {
  // Never granted, output 7's LRG order is still 0, 1, ..., 7; flipping
  // both flops of the (2, 3) pair swaps two adjacent ranks and keeps a
  // total order, so only the deep compare can see it.
  expect_tamper_caught(
      [](core::OutputQosArbiter& arb) {
        arb.lrg().fault_flip(2, 3);
        arb.lrg().fault_flip(3, 2);
        ASSERT_TRUE(std::as_const(arb).lrg().is_total_order());
      },
      "LRG rank[2]");
}

TEST(VersionGate, CatchesAGlClockWriteOnAnUngrantedOutput) {
  expect_tamper_caught(
      [](core::OutputQosArbiter& arb) { arb.gl_tracker_mut().fault_flip(4); },
      "GL clock");
}

// ---- The epoch sweep: an untouched output is still compared once per epoch

/// Radix-8 SSVC switch whose only GB traffic is a 3-packet burst from input
/// 1 to output 0 at cycle 0, drained long before the first epoch ends. With
/// `late` > 0, one BE packet from input 2 to output 1 arrives at that
/// cycle, so a fast-forward from the drained state stops there.
sw::CrossbarSwitch gb_burst_switch(Cycle late) {
  sw::SwitchConfig config;
  config.radix = 8;
  traffic::Workload w(8);
  traffic::FlowSpec gb;
  gb.src = 1;
  gb.dst = 0;
  gb.cls = TrafficClass::GuaranteedBandwidth;
  gb.reserved_rate = 0.1;
  gb.len_min = gb.len_max = 4;
  gb.inject = traffic::InjectKind::BurstOnce;
  gb.burst_packets = 3;
  w.add_flow(gb);
  if (late > 0) {
    traffic::FlowSpec be;
    be.src = 2;
    be.dst = 1;
    be.inject = traffic::InjectKind::Trace;
    be.trace = {late};
    w.add_flow(be);
  }
  return sw::CrossbarSwitch(config, std::move(w));
}

CheckOptions skip_epoch_wrap() {
  CheckOptions opts;
  opts.bug = PlantedBug::SkipEpochWrap;
  return opts;
}

void expect_missed_wrap(const DifferentialChecker& checker, Cycle t) {
  ASSERT_TRUE(checker.divergence().has_value()) << "missed wrap unnoticed";
  EXPECT_EQ(checker.divergence()->kind, "state_mismatch");
  EXPECT_EQ(checker.divergence()->cycle, t);
  EXPECT_EQ(checker.divergence()->output, 0u);
  EXPECT_NE(checker.divergence()->detail.find("auxVC[1] value"),
            std::string::npos)
      << checker.divergence()->detail;
}

TEST(EpochSweep, CatchesAMissedWrapOnAnOutputIdleAtTheBoundary) {
  sw::CrossbarSwitch sim = gb_burst_switch(0);
  DifferentialChecker checker(sim, skip_epoch_wrap());
  const Cycle epoch = sim.config().ssvc.epoch_cycles();
  while (sim.now() < epoch) ASSERT_TRUE(checker.step()) << sim.now();
  // Output 0 has been idle for most of the epoch, with its counter up.
  ASSERT_TRUE(sim.quiescent());
  ASSERT_GT(checker.reference(0).value(1), 0u);
  EXPECT_FALSE(checker.step());
  expect_missed_wrap(checker, epoch);
}

TEST(EpochSweep, CatchesAMissedWrapOnTheFirstCycleAfterAFastForward) {
  const Cycle late = 5000;
  sw::CrossbarSwitch sim = gb_burst_switch(late);
  DifferentialChecker checker(sim, skip_epoch_wrap());
  for (int k = 0; k < 64; ++k) ASSERT_TRUE(checker.step()) << sim.now();
  ASSERT_TRUE(sim.fast_forward_eligible() && sim.quiescent());
  ASSERT_GT(checker.reference(0).value(1), 0u);
  sim.fast_forward(late + 100);
  checker.on_fast_forward();
  // The jump crossed several epoch boundaries and stepped none of them.
  const Cycle t = sim.now();
  ASSERT_GE(t / sim.config().ssvc.epoch_cycles(), 3u) << t;
  EXPECT_FALSE(checker.step());
  expect_missed_wrap(checker, t);
}

TEST(EpochSweep, AJumpOverDrainedCountersMovesNoVersion) {
  // After the burst drains, every counter of outputs 0 and 7 is a clean
  // zero: the thousand epochs a jump crosses change none of them, so
  // neither side's version may move, though both epoch bases must.
  const Cycle epoch = sw::SwitchConfig{}.ssvc.epoch_cycles();
  const Cycle late = 1000 * epoch + epoch / 2;
  sw::CrossbarSwitch sim = gb_burst_switch(late);
  DifferentialChecker checker(sim);
  const std::array<OutputId, 2> outputs = {0, 7};
  const auto drained = [&] {
    for (const OutputId o : outputs) {
      for (InputId i = 0; i < sim.config().radix; ++i) {
        if (!std::as_const(sim).qos_arbiter(o).aux_vc(i).clean_zero() ||
            checker.reference(o).value(i) != 0) {
          return false;
        }
      }
    }
    return true;
  };
  // Step epoch by epoch until the burst has gone and both sides drained.
  while (!(sim.delivered_packets(0) == 3 && sim.quiescent() && drained())) {
    ASSERT_LT(sim.now(), 16 * epoch) << "the burst never drained";
    for (Cycle c = 0; c < epoch; ++c) ASSERT_TRUE(checker.step());
  }
  ASSERT_LT(sim.now(), late);
  std::array<std::uint64_t, 2> sim_ver{};
  std::array<std::uint64_t, 2> ref_ver{};
  std::array<Cycle, 2> base{};
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const core::OutputQosArbiter& arb =
        std::as_const(sim).qos_arbiter(outputs[k]);
    sim_ver[k] = arb.state_version();
    ref_ver[k] = checker.reference(outputs[k]).version();
    base[k] = arb.epoch_base();
  }
  // The jump stops at the late packet, whose first stepped cycle sweeps
  // every output; the run then delivers it and stays clean.
  ASSERT_TRUE(checker.run(late + 2 * epoch - sim.now()))
      << checker.divergence()->kind << "\n" << checker.divergence()->detail;
  EXPECT_GT(sim.delivered_packets(1), 0u);
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const core::OutputQosArbiter& arb =
        std::as_const(sim).qos_arbiter(outputs[k]);
    EXPECT_EQ(arb.state_version(), sim_ver[k]) << "output " << outputs[k];
    EXPECT_EQ(checker.reference(outputs[k]).version(), ref_ver[k])
        << "output " << outputs[k];
    EXPECT_GE(arb.epoch_base(), late - late % epoch) << "output " << outputs[k];
    EXPECT_GT(arb.epoch_base(), base[k]) << "output " << outputs[k];
  }
}

// ---- Forged cycle records: invariants no generated scenario trips ------

constexpr Cycle kForgedCycle = 42;

/// Feeds `rec` to the checker's per-cycle entry point and expects `kind` at
/// kForgedCycle on `output`; returns the divergence detail.
std::string expect_forged(DifferentialChecker& checker,
                          const sw::CycleRecord& rec, const std::string& kind,
                          OutputId output) {
  checker.check_cycle(rec);
  if (!checker.divergence().has_value()) {
    ADD_FAILURE() << kind << " went unnoticed";
    return {};
  }
  EXPECT_EQ(checker.divergence()->kind, kind);
  EXPECT_EQ(checker.divergence()->cycle, kForgedCycle);
  EXPECT_EQ(checker.divergence()->output, output);
  return checker.divergence()->detail;
}

/// Invariants-only: a forged grant must not first trip the reference.
CheckOptions invariants_only() {
  CheckOptions opts;
  opts.differential = false;
  return opts;
}

TEST(ForgedCycle, TwoGrantsOnOneOutputAreADoubleGrant) {
  sw::CrossbarSwitch sim = idle_output_switch();
  DifferentialChecker checker(sim, invariants_only());
  const std::vector<sw::GrantRecord> grants = {
      {0, 2, TrafficClass::BestEffort, false},
      {1, 2, TrafficClass::BestEffort, true}};
  sw::CycleRecord rec;
  rec.cycle = kForgedCycle;
  rec.grants = grants;
  EXPECT_EQ(expect_forged(checker, rec, "double_grant_output", 2),
            "output granted twice in one cycle: first to input 0, then to "
            "input 1");
}

TEST(ForgedCycle, TwoGrantsToOneInputAreADoubleGrant) {
  sw::CrossbarSwitch sim = idle_output_switch();
  DifferentialChecker checker(sim, invariants_only());
  const std::vector<sw::GrantRecord> grants = {
      {3, 1, TrafficClass::GuaranteedBandwidth, false},
      {3, 5, TrafficClass::BestEffort, false}};
  sw::CycleRecord rec;
  rec.cycle = kForgedCycle;
  rec.grants = grants;
  EXPECT_EQ(expect_forged(checker, rec, "double_grant_input", 5),
            "input 3 granted twice in one cycle (second grant by output 5)");
}

TEST(ForgedCycle, AnEngineGrantOutsideTheEligiblePairsIsUnrequested) {
  sw::SwitchConfig config;
  config.radix = 4;
  config.allocation = sw::AllocationMode::IterativeMatching;
  config.engine = arb::MatchKind::Islip;
  sw::CrossbarSwitch sim(config, traffic::Workload(4));
  DifferentialChecker checker(sim);
  // Input 0 may go to output 1 only; input 1 to output 2.
  const std::vector<std::uint64_t> eligible = {0b0010, 0b0100, 0, 0};
  sw::CycleRecord rec;
  rec.cycle = kForgedCycle;
  rec.eligible = eligible;

  const std::vector<sw::GrantRecord> legal = {
      {0, 1, TrafficClass::BestEffort, false}};
  rec.grants = legal;
  checker.check_cycle(rec);
  ASSERT_FALSE(checker.divergence().has_value())
      << checker.divergence()->kind;

  const std::vector<sw::GrantRecord> stolen = {
      {0, 2, TrafficClass::BestEffort, false}};
  rec.grants = stolen;
  EXPECT_EQ(expect_forged(checker, rec, "unrequested_grant", 2),
            "engine granted input 0 at an output it never requested\n"
            "requests: [in=1]\n");
}

TEST(ForgedCycle, BufferingMoreThanCreatedBreaksConservation) {
  sw::CrossbarSwitch sim = idle_output_switch();
  DifferentialChecker checker(sim, invariants_only());
  // Flow 1 buffered more than it created, flow 3 delivered more than it
  // buffered: the lowest violating flow is the one reported.
  const std::vector<std::uint64_t> created = {4, 4, 4, 4};
  const std::vector<std::uint64_t> admitted = {4, 5, 4, 4};
  const std::vector<std::uint64_t> delivered = {4, 4, 4, 5};
  sw::CycleRecord rec;
  rec.cycle = kForgedCycle;
  rec.created = created;
  rec.admitted = admitted;
  rec.delivered = delivered;
  EXPECT_EQ(expect_forged(checker, rec, "conservation", kNoPort),
            "flow 1: created 4, buffered 5, delivered 4");
}

TEST(ForgedCycle, DeliveringMoreThanBufferedBreaksConservation) {
  sw::CrossbarSwitch sim = idle_output_switch();
  DifferentialChecker checker(sim, invariants_only());
  // Flows 1 and 2 both delivered more than they buffered.
  const std::vector<std::uint64_t> created = {4, 4, 4, 4};
  const std::vector<std::uint64_t> admitted = {4, 3, 2, 4};
  const std::vector<std::uint64_t> delivered = {4, 4, 4, 4};
  sw::CycleRecord rec;
  rec.cycle = kForgedCycle;
  rec.created = created;
  rec.admitted = admitted;
  rec.delivered = delivered;
  EXPECT_EQ(expect_forged(checker, rec, "conservation", kNoPort),
            "flow 1: created 4, buffered 3, delivered 4");
}

}  // namespace
}  // namespace ssq::check
