// Tests for src/arb/matching: per-engine matching properties (partial
// permutation, iSLIP desynchronisation, QPS queue-proportional sampling,
// SW-QPS monotone window refinement), empty-view statelessness, and the
// factory error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arb/factory.hpp"
#include "arb/matching.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace ssq::arb {
namespace {

/// Owning MatchView backing store for hand-built request states.
struct ViewState {
  std::uint32_t radix;
  std::vector<std::uint64_t> eligible;
  std::vector<std::uint64_t> candidates;
  std::vector<std::uint32_t> voq;

  explicit ViewState(std::uint32_t r)
      : radix(r),
        eligible(r, 0),
        candidates(r, 0),
        voq(static_cast<std::size_t>(r) * r, 0) {}

  void set(InputId i, OutputId o, std::uint32_t backlog) {
    eligible[i] |= 1ULL << o;
    candidates[i] |= 1ULL << o;
    voq[static_cast<std::size_t>(i) * radix + o] = backlog;
  }

  [[nodiscard]] MatchView view() const {
    return MatchView{radix, std::span<const std::uint64_t>(eligible),
                     std::span<const std::uint64_t>(candidates),
                     std::span<const std::uint32_t>(voq)};
  }
};

/// Random admissible view: each (i, o) requests with probability ~0.3.
ViewState random_view(Rng& rng, std::uint32_t radix) {
  ViewState v(radix);
  for (InputId i = 0; i < radix; ++i) {
    for (OutputId o = 0; o < radix; ++o) {
      if (rng.bernoulli(0.3)) {
        v.set(i, o, 1 + static_cast<std::uint32_t>(rng.below(30)));
      }
    }
  }
  return v;
}

/// Partial-permutation check: every matched pair is eligible with positive
/// backlog; no input appears twice (outputs are unique by construction —
/// match_in is indexed by output).
void expect_partial_permutation(const ViewState& v,
                                const std::vector<InputId>& match) {
  std::uint64_t in_used = 0;
  for (OutputId o = 0; o < v.radix; ++o) {
    const InputId i = match[o];
    if (i == kNoPort) continue;
    ASSERT_LT(i, v.radix);
    EXPECT_NE((v.eligible[i] >> o) & 1ULL, 0ULL)
        << "pair (" << i << "," << o << ") is not eligible";
    EXPECT_GT(v.voq[static_cast<std::size_t>(i) * v.radix + o], 0u);
    EXPECT_EQ((in_used >> i) & 1ULL, 0ULL)
        << "input " << i << " matched twice";
    in_used |= 1ULL << i;
  }
}

TEST(Matching, EveryEngineEmitsPartialPermutations) {
  constexpr std::uint32_t kRadix = 12;
  for (const MatchKind kind : {MatchKind::Islip, MatchKind::Qps,
                               MatchKind::SwQps, MatchKind::Ssvc}) {
    auto engine = make_engine(kind, kRadix, 2, /*seed=*/7);
    Rng rng(0x1234 + static_cast<std::uint64_t>(kind));
    std::vector<InputId> match(kRadix, kNoPort);
    for (int cycle = 0; cycle < 300; ++cycle) {
      const ViewState v = random_view(rng, kRadix);
      const std::uint32_t iters = engine->match(v.view(), match);
      EXPECT_GE(iters, 1u);
      expect_partial_permutation(v, match);
    }
  }
}

TEST(Matching, MaximalUnderSingleRequestLoad) {
  // One eligible output per input, all distinct: every engine must match
  // every pair — anything less leaves a trivially servable request idle.
  constexpr std::uint32_t kRadix = 8;
  for (const MatchKind kind : {MatchKind::Islip, MatchKind::Qps,
                               MatchKind::SwQps, MatchKind::Ssvc}) {
    auto engine = make_engine(kind, kRadix, 1, /*seed=*/9);
    ViewState v(kRadix);
    for (InputId i = 0; i < kRadix; ++i) {
      v.set(i, (i + 3) % kRadix, 5);
    }
    std::vector<InputId> match(kRadix, kNoPort);
    // SW-QPS may take a cycle to promote pairs through the window.
    int matched = 0;
    for (int cycle = 0; cycle < 4 && matched < static_cast<int>(kRadix);
         ++cycle) {
      engine->match(v.view(), match);
      matched = 0;
      for (OutputId o = 0; o < kRadix; ++o) matched += match[o] != kNoPort;
      expect_partial_permutation(v, match);
    }
    EXPECT_EQ(matched, static_cast<int>(kRadix))
        << match_kind_name(kind) << " left single-request pairs unmatched";
  }
}

TEST(Matching, IslipPointersDesynchroniseUnderSaturation) {
  // The classic iSLIP result: under saturated all-to-all load, the grant
  // pointers desynchronise and the engine settles into a full (size-radix)
  // matching every cycle, even with a single iteration.
  constexpr std::uint32_t kRadix = 8;
  IslipEngine engine(kRadix, /*iterations=*/1);
  ViewState v(kRadix);
  for (InputId i = 0; i < kRadix; ++i) {
    for (OutputId o = 0; o < kRadix; ++o) v.set(i, o, 4);
  }
  std::vector<InputId> match(kRadix, kNoPort);
  for (int warm = 0; warm < 4 * static_cast<int>(kRadix); ++warm) {
    engine.match(v.view(), match);
  }
  for (int cycle = 0; cycle < 64; ++cycle) {
    engine.match(v.view(), match);
    int size = 0;
    for (OutputId o = 0; o < kRadix; ++o) size += match[o] != kNoPort;
    EXPECT_EQ(size, static_cast<int>(kRadix))
        << "cycle " << cycle << " matching not full after desync";
    expect_partial_permutation(v, match);
  }
  // Desynchronised steady state: all grant pointers distinct.
  std::uint64_t seen = 0;
  for (OutputId o = 0; o < kRadix; ++o) {
    seen |= 1ULL << engine.grant_pointer(o);
  }
  EXPECT_EQ(seen, (1ULL << kRadix) - 1)
      << "grant pointers collide in steady state";
}

TEST(Matching, QpsSamplesProportionallyToQueueLength) {
  // One input, two outputs with a 30:10 backlog split: the QPS proposal
  // must land on the long queue ~75% of the time under the seeded RNG.
  constexpr std::uint32_t kRadix = 2;
  QpsEngine engine(kRadix, /*iterations=*/1, /*seed=*/42);
  ViewState v(kRadix);
  v.set(0, 0, 30);
  v.set(0, 1, 10);
  std::vector<InputId> match(kRadix, kNoPort);
  int to_long = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    engine.match(v.view(), match);
    ASSERT_TRUE((match[0] == 0) != (match[1] == 0))
        << "exactly one output must take input 0's proposal";
    if (match[0] == 0) ++to_long;
  }
  const double frac = static_cast<double>(to_long) / kTrials;
  EXPECT_NEAR(frac, 0.75, 0.03);
}

TEST(Matching, QpsPrefersLongerVoqAtTheOutput) {
  // Two inputs contend for output 0 every cycle; the output must keep the
  // longer-VOQ proposal whenever both propose (and the tie rule is lowest
  // input). With output 0 the only choice, both always propose.
  constexpr std::uint32_t kRadix = 2;
  QpsEngine engine(kRadix, 1, /*seed=*/5);
  ViewState v(kRadix);
  v.set(0, 0, 3);
  v.set(1, 0, 25);
  std::vector<InputId> match(kRadix, kNoPort);
  for (int trial = 0; trial < 50; ++trial) {
    engine.match(v.view(), match);
    EXPECT_EQ(match[0], InputId{1}) << "output kept the shorter-VOQ proposal";
  }
}

TEST(Matching, SwQpsWindowRefinementNeverShrinksAFrame) {
  // With persistent backlog (no pair ever drains), a window frame only
  // gains edges while it waits: as frame k advances to slot k-1, its size
  // must be monotonically non-decreasing.
  constexpr std::uint32_t kRadix = 8;
  constexpr std::uint32_t kWindow = 4;
  SwQpsEngine engine(kRadix, kWindow, /*seed=*/11);
  ASSERT_EQ(engine.window(), kWindow);
  Rng rng(99);
  std::vector<InputId> match(kRadix, kNoPort);
  ViewState v(kRadix);
  for (InputId i = 0; i < kRadix; ++i) {
    for (OutputId o = 0; o < kRadix; ++o) v.set(i, o, 100);  // never drains
  }
  std::vector<std::uint32_t> prev(kWindow, 0);
  for (int cycle = 0; cycle < 200; ++cycle) {
    engine.match(v.view(), match);
    expect_partial_permutation(v, match);
    // After the slide, frame k holds what frame k+1 held before, plus any
    // fresh proposals: current size(k) >= previous size(k+1).
    for (std::uint32_t k = 0; k + 1 < kWindow; ++k) {
      EXPECT_GE(engine.frame_size(k) + 0u, prev[k + 1])
          << "frame " << k << " shrank at cycle " << cycle;
    }
    for (std::uint32_t k = 0; k < kWindow; ++k) {
      prev[k] = engine.frame_size(k);
    }
  }
}

TEST(Matching, EmptyViewLeavesEnginesUntouched) {
  // The fast-forward contract: a call with an all-empty view must not roll
  // RNG or mutate state, so skipping those calls entirely is exact. Drive
  // one engine through empty views, a twin through none — identical output
  // on the first real view.
  constexpr std::uint32_t kRadix = 6;
  Rng rng(0xabc);
  const ViewState real = random_view(rng, kRadix);
  const ViewState empty{kRadix};
  for (const MatchKind kind : {MatchKind::Islip, MatchKind::Qps,
                               MatchKind::SwQps, MatchKind::Ssvc}) {
    auto idled = make_engine(kind, kRadix, 2, /*seed=*/3);
    auto fresh = make_engine(kind, kRadix, 2, /*seed=*/3);
    std::vector<InputId> match_idled(kRadix, kNoPort);
    std::vector<InputId> match_fresh(kRadix, kNoPort);
    for (int cycle = 0; cycle < 50; ++cycle) {
      idled->match(empty.view(), match_idled);
      for (OutputId o = 0; o < kRadix; ++o) {
        EXPECT_EQ(match_idled[o], kNoPort);
      }
    }
    idled->match(real.view(), match_idled);
    fresh->match(real.view(), match_fresh);
    EXPECT_EQ(match_idled, match_fresh)
        << match_kind_name(kind) << " changed state on empty views";
  }
}

TEST(Matching, StarvingEngineNeverMatches) {
  constexpr std::uint32_t kRadix = 4;
  auto engine = make_engine(MatchKind::Starve, kRadix, 1, 0);
  ViewState v(kRadix);
  for (InputId i = 0; i < kRadix; ++i) v.set(i, i, 9);
  std::vector<InputId> match(kRadix, InputId{0});
  engine->match(v.view(), match);
  for (OutputId o = 0; o < kRadix; ++o) EXPECT_EQ(match[o], kNoPort);
}

TEST(MatchingFactory, ParseRoundTripsAndNamesOffendingToken) {
  for (const MatchKind kind : {MatchKind::None, MatchKind::Islip,
                               MatchKind::Qps, MatchKind::SwQps,
                               MatchKind::Ssvc, MatchKind::Starve}) {
    EXPECT_EQ(parse_match_kind(match_kind_name(kind)), kind);
  }
  try {
    (void)parse_match_kind("pim");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'pim'"), std::string::npos)
        << "error must name the offending token: " << e.what();
  }
}

TEST(MatchingFactory, MakeEngineRejectsNone) {
  EXPECT_THROW((void)make_engine(MatchKind::None, 8, 2, 1), ConfigError);
}

TEST(MatchingFactory, ArbiterFactoryThrowsConfigErrorWithToken) {
  // The arbiter factory's error path (was an SSQ_EXPECT abort): unknown
  // names throw ConfigError carrying the token and a file:line anchor.
  try {
    (void)parse_kind("wfq2");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'wfq2'"), std::string::npos) << what;
    EXPECT_NE(what.find("factory.cpp"), std::string::npos)
        << "error should carry file:line context: " << what;
  }
  EXPECT_NO_THROW((void)parse_kind("lrg"));
}

}  // namespace
}  // namespace ssq::arb
