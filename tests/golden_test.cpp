// Golden-trace regression corpus: every committed scenario under
// tests/golden/ must replay to a byte-exact copy of its committed .trace
// file, and the clean ones must pass the full differential check. A
// legitimate behaviour change shows up here as a readable trace diff;
// regenerate with
//   ssq_fuzz --replay=tests/golden/NAME.scenario --trace=tests/golden/NAME.trace
// and review the diff like any other code change (docs/TESTING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arb/matching.hpp"
#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "check/trace.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace ssq::check {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(SSQ_GOLDEN_DIR)) {
    if (entry.path().extension() == ".scenario") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Golden, CorpusCoversTheFeatureMatrix) {
  const auto files = corpus();
  ASSERT_GE(files.size(), 9u) << "golden corpus shrank below 9 scenarios";

  bool any_fault = false;
  bool any_clean = false;
  bool any_gl = false;
  std::uint32_t min_radix = 64;
  std::uint32_t max_radix = 2;
  std::uint64_t engines = 0;  // bitmask over arb::MatchKind values
  for (const auto& f : files) {
    const Scenario s = load_scenario(f.string());
    min_radix = std::min(min_radix, s.radix);
    max_radix = std::max(max_radix, s.radix);
    any_fault |= s.has_faults();
    any_clean |= !s.has_faults();
    engines |= 1ULL << static_cast<unsigned>(s.matching_engine);
    for (const auto& fl : s.flows) {
      any_gl |= fl.cls == TrafficClass::GuaranteedLatency;
    }
  }
  EXPECT_LE(min_radix, 8u);
  EXPECT_GE(max_radix, 64u);
  EXPECT_TRUE(any_fault) << "corpus needs a fault-injected scenario";
  EXPECT_TRUE(any_clean) << "corpus needs clean scenarios";
  EXPECT_TRUE(any_gl) << "corpus needs GL traffic";
  for (const auto kind : {arb::MatchKind::None, arb::MatchKind::Islip,
                          arb::MatchKind::Qps, arb::MatchKind::SwQps}) {
    EXPECT_NE(engines & (1ULL << static_cast<unsigned>(kind)), 0u)
        << "corpus needs a scenario on engine '" << arb::match_kind_name(kind)
        << "'";
  }
}

TEST(Golden, TracesReplayByteExactly) {
  for (const auto& file : corpus()) {
    const Scenario s = load_scenario(file.string());
    fs::path trace_file = file;
    trace_file.replace_extension(".trace");
    ASSERT_TRUE(fs::exists(trace_file))
        << file << " has no committed .trace — generate one with ssq_fuzz "
                   "--replay --trace";
    const std::string expected = slurp(trace_file);
    const std::string actual = golden_trace(s);
    // Byte equality; on mismatch point at the first differing line rather
    // than dumping two multi-thousand-line traces.
    if (actual != expected) {
      std::istringstream ia(actual), ie(expected);
      std::string la, le;
      std::size_t line = 0;
      while (true) {
        ++line;
        const bool ga = static_cast<bool>(std::getline(ia, la));
        const bool ge = static_cast<bool>(std::getline(ie, le));
        if (!ga && !ge) break;
        ASSERT_EQ(ga, ge) << s.name << ": trace length differs at line "
                          << line;
        ASSERT_EQ(la, le) << s.name << ": first divergence at line " << line;
      }
      FAIL() << s.name << ": traces differ";  // unreachable belt-and-braces
    }
  }
}

TEST(Golden, TracesInvariantAcrossKernelAndFastForward) {
  // The committed traces are the ground truth for idle-cycle fast-forward
  // on and off: a bug in either that shifts a single grant or event
  // timestamp shows up as a corpus diff. (The name dates from when the test
  // also swept interchangeable arbitration kernels.)
  for (const auto& file : corpus()) {
    Scenario s = load_scenario(file.string());
    fs::path trace_file = file;
    trace_file.replace_extension(".trace");
    const std::string expected = slurp(trace_file);
    for (const bool ff : {false, true}) {
      s.fast_forward = ff;
      EXPECT_EQ(golden_trace(s), expected)
          << s.name << " fast_forward=" << ff;
    }
  }
}

TEST(Golden, ACheckerLeavesAnAttachedTracerEveryEvent) {
  // The checker reads the switch's cycle record and attaches no probe, so a
  // tracer attached before it still sees the whole golden trace.
  for (const auto& file : corpus()) {
    const Scenario s = load_scenario(file.string());
    ScenarioRun rig = instantiate(s);
    std::ostringstream out;
    GoldenTraceSink sink(out);
    obs::Tracer tracer(sink);
    obs::SwitchProbe probe(s.radix);
    probe.set_tracer(&tracer);
    rig.sim->attach_probe(&probe);
    {
      DifferentialChecker checker(*rig.sim);
      EXPECT_TRUE(checker.run(s.cycles)) << s.name;
    }
    EXPECT_EQ(rig.sim->probe(), &probe) << s.name;
    rig.sim->attach_probe(nullptr);
    tracer.finish();
    EXPECT_EQ(out.str(), golden_trace(s)) << s.name;
  }
}

TEST(Golden, CleanScenariosPassTheDifferentialCheck) {
  std::uint64_t grants = 0;
  for (const auto& file : corpus()) {
    const Scenario s = load_scenario(file.string());
    const RunResult r = run_scenario(s);
    EXPECT_FALSE(r.failed) << s.name << ": " << r.kind << " at cycle "
                           << r.fail_cycle << "\n" << r.detail;
    grants += r.grants_checked;
  }
  EXPECT_GT(grants, 5000u) << "corpus exercises too little arbitration";
}

}  // namespace
}  // namespace ssq::check
