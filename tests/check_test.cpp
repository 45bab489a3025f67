// Tests for src/check/: the differential oracle, the scenario fuzzer, the
// shrinker, and — crucially — the self-test that a deliberately planted
// defect in the reference model is caught and shrunk to a tiny repro. A
// checker that never fires is worse than none.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "arb/matching.hpp"
#include "check/differential.hpp"
#include "check/reference.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/trace.hpp"
#include "sim/error.hpp"

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

}  // namespace
}  // namespace ssq::check
