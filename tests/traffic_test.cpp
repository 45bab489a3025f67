// Tests for src/traffic: flow validation, injection process statistics,
// workload-to-allocation derivation, crosspoint exclusivity.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "traffic/flow.hpp"
#include "traffic/injector.hpp"
#include "traffic/patterns.hpp"
#include "traffic/workload.hpp"
#include "traffic/workload_io.hpp"

namespace ssq::traffic {
namespace {

FlowSpec gb_flow(InputId src, OutputId dst, double rate, std::uint32_t len,
                 double inject_rate) {
  FlowSpec f;
  f.src = src;
  f.dst = dst;
  f.cls = TrafficClass::GuaranteedBandwidth;
  f.reserved_rate = rate;
  f.len_min = f.len_max = len;
  f.inject = InjectKind::Bernoulli;
  f.inject_rate = inject_rate;
  return f;
}

// ----------------------------------------------------------- Injector ----

TEST(InjectorTest, BernoulliRateMatches) {
  FlowSpec f = gb_flow(0, 0, 0.5, 4, 0.4);  // 0.4 flits/cycle, 4-flit packets
  Injector inj(f, Rng(1));
  std::uint64_t packets = 0;
  constexpr Cycle kCycles = 200000;
  for (Cycle c = 0; c < kCycles; ++c) packets += inj.packets_at(c);
  const double flit_rate = static_cast<double>(packets) * 4.0 / kCycles;
  EXPECT_NEAR(flit_rate, 0.4, 0.01);
}

TEST(InjectorTest, PeriodicIsExact) {
  FlowSpec f = gb_flow(0, 0, 0.5, 8, 0.25);  // period 32 cycles
  f.inject = InjectKind::Periodic;
  Injector inj(f, Rng(2));
  std::vector<Cycle> fires;
  for (Cycle c = 0; c < 200; ++c) {
    if (inj.packets_at(c)) fires.push_back(c);
  }
  ASSERT_GE(fires.size(), 3u);
  EXPECT_EQ(fires[0], 0u);
  EXPECT_EQ(fires[1], 32u);
  EXPECT_EQ(fires[2], 64u);
}

TEST(InjectorTest, OnOffMatchesAverageRate) {
  FlowSpec f = gb_flow(0, 0, 0.5, 2, 0.2);
  f.inject = InjectKind::OnOff;
  f.mean_on_cycles = 50.0;
  f.mean_off_cycles = 50.0;
  Injector inj(f, Rng(3));
  std::uint64_t packets = 0;
  constexpr Cycle kCycles = 400000;
  for (Cycle c = 0; c < kCycles; ++c) packets += inj.packets_at(c);
  EXPECT_NEAR(static_cast<double>(packets) * 2.0 / kCycles, 0.2, 0.02);
}

TEST(InjectorTest, OnOffIsBurstier) {
  // Same average rate; the on/off source should show a larger variance of
  // per-window packet counts than Bernoulli.
  FlowSpec fb = gb_flow(0, 0, 0.5, 1, 0.2);
  FlowSpec fo = fb;
  fo.inject = InjectKind::OnOff;
  fo.mean_on_cycles = 100.0;
  fo.mean_off_cycles = 100.0;
  Injector ib(fb, Rng(4)), io(fo, Rng(5));
  auto window_var = [](Injector& inj) {
    constexpr int kWindows = 2000;
    constexpr Cycle kWin = 100;
    double sum = 0.0, sum2 = 0.0;
    Cycle now = 0;
    for (int w = 0; w < kWindows; ++w) {
      double count = 0;
      for (Cycle c = 0; c < kWin; ++c) count += inj.packets_at(now++);
      sum += count;
      sum2 += count * count;
    }
    const double mean = sum / kWindows;
    return sum2 / kWindows - mean * mean;
  };
  EXPECT_GT(window_var(io), 2.0 * window_var(ib));
}

TEST(InjectorTest, BurstOnceFiresOnce) {
  FlowSpec f;
  f.cls = TrafficClass::GuaranteedLatency;
  f.inject = InjectKind::BurstOnce;
  f.burst_start = 100;
  f.burst_packets = 7;
  Injector inj(f, Rng(6));
  std::uint64_t total = 0;
  for (Cycle c = 0; c < 1000; ++c) {
    const auto n = inj.packets_at(c);
    if (n) {
      EXPECT_EQ(c, 100u);
    }
    total += n;
  }
  EXPECT_EQ(total, 7u);
}

TEST(InjectorTest, VariableLengthsUniform) {
  FlowSpec f = gb_flow(0, 0, 0.5, 1, 0.5);
  f.len_min = 2;
  f.len_max = 5;
  Injector inj(f, Rng(8));
  std::uint64_t counts[6] = {};
  for (int i = 0; i < 40000; ++i) {
    const auto len = inj.draw_length();
    ASSERT_GE(len, 2u);
    ASSERT_LE(len, 5u);
    ++counts[len];
  }
  for (int len = 2; len <= 5; ++len) {
    EXPECT_NEAR(static_cast<double>(counts[len]), 10000.0, 400.0);
  }
}

TEST(InjectorTest, StartCycleDelaysTheSource) {
  for (InjectKind kind :
       {InjectKind::Bernoulli, InjectKind::OnOff, InjectKind::Periodic}) {
    FlowSpec f = gb_flow(0, 0, 0.5, 2, 0.4);
    f.inject = kind;
    f.start_cycle = 500;
    Injector inj(f, Rng(41));
    for (Cycle c = 0; c < 500; ++c) {
      ASSERT_EQ(inj.packets_at(c), 0u) << "kind " << static_cast<int>(kind);
    }
    std::uint64_t after = 0;
    for (Cycle c = 500; c < 10500; ++c) after += inj.packets_at(c);
    EXPECT_NEAR(static_cast<double>(after) * 2.0 / 10000.0, 0.4, 0.05);
  }
}

TEST(InjectorTest, DeterministicAcrossRuns) {
  FlowSpec f = gb_flow(0, 0, 0.5, 4, 0.3);
  Injector a(f, Rng(99)), b(f, Rng(99));
  for (Cycle c = 0; c < 1000; ++c) {
    ASSERT_EQ(a.packets_at(c), b.packets_at(c));
  }
}

TEST(InjectorTest, StochasticSourcesDrawExactlyTheirTwinRngStream) {
  // Bernoulli and OnOff sources consume their private Rng in a fixed order:
  // nothing before start_cycle, then one inject trial per cycle (OnOff: the
  // inject trial while on, then the state-change trial), then one below()
  // per created packet's length. Replay it on a twin Rng, cycle by cycle,
  // and then through next_event()'s pre-roll: the switch's creation
  // calendar and idle fast-forward rely on both reading the same stream.
  constexpr Cycle kStart = 137;
  constexpr Cycle kCycles = 4000;
  constexpr std::uint64_t kSeed = 0xfeed;
  FlowSpec bern;
  bern.len_min = 2;
  bern.len_max = 5;
  bern.inject = InjectKind::Bernoulli;
  bern.inject_rate = 0.9;  // p = 0.9 / mean_len 3 = 0.3
  bern.start_cycle = kStart;
  FlowSpec onoff = bern;
  onoff.inject = InjectKind::OnOff;
  onoff.inject_rate = 0.3;  // duty 0.4 -> peak 0.75 -> p = 0.25
  onoff.mean_on_cycles = 8.0;
  onoff.mean_off_cycles = 12.0;

  for (const FlowSpec& f : {bern, onoff}) {
    SCOPED_TRACE(f.inject == InjectKind::OnOff ? "onoff" : "bernoulli");
    Injector inj(f, Rng(kSeed));
    Rng twin(kSeed);
    const double p_inject = f.inject == InjectKind::OnOff ? 0.25 : 0.3;
    bool on = false;
    std::uint64_t toggles = 0;
    struct Created {
      Cycle at;
      std::uint32_t length;
    };
    std::vector<Created> created;
    for (Cycle now = 0; now < kCycles; ++now) {
      std::uint32_t expect = 0;
      if (now >= kStart) {
        if (f.inject == InjectKind::Bernoulli) {
          expect = twin.bernoulli(p_inject) ? 1 : 0;
        } else if (on) {
          expect = twin.bernoulli(p_inject) ? 1 : 0;
          if (twin.bernoulli(1.0 / f.mean_on_cycles)) on = false;
        } else if (twin.bernoulli(1.0 / f.mean_off_cycles)) {
          on = true;
          ++toggles;
        }
      }
      const std::uint32_t n = inj.packets_at(now);
      ASSERT_EQ(n, expect) << "cycle " << now;
      for (std::uint32_t k = 0; k < n; ++k) {
        const auto len = static_cast<std::uint32_t>(
            f.len_min + twin.below(f.len_max - f.len_min + 1));
        ASSERT_EQ(inj.draw_length(), len) << "cycle " << now;
        created.push_back({now, len});
      }
    }
    EXPECT_GT(created.size(), 200U);
    if (f.inject == InjectKind::OnOff) {
      EXPECT_GT(toggles, 50U);
    }

    // A second injector on the same seed, visited only at the cycles its
    // next_event() reports, with seeded random pre-roll limits: short ones
    // (including limit == now, which rolls nothing) and ones reaching past
    // start_cycle from the pre-start stretch.
    Injector pre(f, Rng(kSeed));
    Rng limits(kSeed + 1);
    std::size_t next = 0;
    std::uint64_t recheck = 0;
    for (Cycle now = 0;;) {
      const Cycle reach = limits.bernoulli(0.2) ? 400 : 8;
      const Cycle at = pre.next_event(now, now + limits.below(reach));
      ASSERT_GE(at, now < kStart ? kStart : now);
      if (at >= kCycles) break;
      const std::uint32_t n = pre.packets_at(at);
      if (n == 0) {
        ++recheck;
        ASSERT_TRUE(next == created.size() || created[next].at > at)
            << "cycle " << at;
      }
      for (std::uint32_t k = 0; k < n; ++k, ++next) {
        ASSERT_LT(next, created.size()) << "cycle " << at;
        ASSERT_EQ(at, created[next].at);
        ASSERT_EQ(pre.draw_length(), created[next].length) << "cycle " << at;
      }
      now = at + 1;
    }
    EXPECT_EQ(next, created.size());
    EXPECT_GT(recheck, 0U);
  }
}

// ----------------------------------------------------------- Workload ----

TEST(WorkloadTest, AllocationFromGbFlows) {
  Workload w(4);
  w.add_flow(gb_flow(0, 3, 0.4, 8, 0.1));
  w.add_flow(gb_flow(1, 3, 0.2, 8, 0.1));
  w.add_flow(gb_flow(2, 1, 0.5, 4, 0.1));
  w.set_gl_reservation(3, 0.1, 2);
  const auto a3 = w.allocation_for(3);
  EXPECT_DOUBLE_EQ(a3.gb_rate[0], 0.4);
  EXPECT_DOUBLE_EQ(a3.gb_rate[1], 0.2);
  EXPECT_DOUBLE_EQ(a3.gb_rate[2], 0.0);
  EXPECT_DOUBLE_EQ(a3.gl_rate, 0.1);
  EXPECT_EQ(a3.gl_packet_len, 2u);
  EXPECT_EQ(a3.gb_packet_len, 8u);
  const auto a1 = w.allocation_for(1);
  EXPECT_DOUBLE_EQ(a1.gb_rate[2], 0.5);
  EXPECT_DOUBLE_EQ(a1.gl_rate, 0.0);
  w.validate();
}

TEST(WorkloadTest, CrosspointExclusivity) {
  Workload w(4);
  w.add_flow(gb_flow(0, 1, 0.3, 8, 0.1));
  EXPECT_TRUE(w.crosspoints_exclusive());
  w.add_flow(gb_flow(0, 1, 0.3, 8, 0.1));  // second GB flow, same crosspoint
  EXPECT_FALSE(w.crosspoints_exclusive());
}

TEST(WorkloadTest, BeFlowsDontNeedReservations) {
  Workload w(2);
  FlowSpec f;
  f.src = 0;
  f.dst = 1;
  f.cls = TrafficClass::BestEffort;
  f.inject = InjectKind::Bernoulli;
  f.inject_rate = 0.5;
  w.add_flow(f);
  w.validate();
  EXPECT_DOUBLE_EQ(w.allocation_for(1).gb_total(), 0.0);
}

// ------------------------------------------------------------ Patterns ----

TEST(PatternsTest, UniformCoversAllPairs) {
  PatternConfig c;
  c.pattern = Pattern::UniformRandom;
  c.radix = 4;
  c.load_per_input = 0.6;
  const Workload w = build_pattern(c);
  EXPECT_EQ(w.num_flows(), 12u);  // 4 * 3
  double load0 = 0.0;
  for (const auto& f : w.flows()) {
    EXPECT_NE(f.src, f.dst);
    if (f.src == 0) load0 += f.inject_rate;
  }
  EXPECT_NEAR(load0, 0.6, 1e-9);
}

TEST(PatternsTest, PermutationPatternsAreBijections) {
  for (Pattern p : {Pattern::Transpose, Pattern::Tornado,
                    Pattern::Neighbour}) {
    PatternConfig c;
    c.pattern = p;
    c.radix = 8;
    c.load_per_input = 0.5;
    const Workload w = build_pattern(c);
    EXPECT_EQ(w.num_flows(), 8u) << pattern_name(p);
    std::uint32_t seen = 0;
    for (const auto& f : w.flows()) {
      EXPECT_EQ((seen >> f.dst) & 1u, 0u) << pattern_name(p);
      seen |= 1u << f.dst;
    }
    EXPECT_EQ(seen, 0xFFu) << pattern_name(p);
  }
}

TEST(PatternsTest, HotspotTargetsOneOutput) {
  PatternConfig c;
  c.pattern = Pattern::Hotspot;
  c.radix = 8;
  c.hotspot = 3;
  c.load_per_input = 0.2;
  const Workload w = build_pattern(c);
  EXPECT_EQ(w.num_flows(), 7u);
  for (const auto& f : w.flows()) EXPECT_EQ(f.dst, 3u);
}

TEST(PatternsTest, GbVariantReservesAdmissibly) {
  PatternConfig c;
  c.pattern = Pattern::UniformRandom;
  c.radix = 6;
  c.load_per_input = 0.5;
  c.cls = TrafficClass::GuaranteedBandwidth;
  const Workload w = build_pattern(c);  // validate() inside would abort if not
  for (OutputId o = 0; o < 6; ++o) {
    EXPECT_NEAR(w.allocation_for(o).gb_total(), 0.9, 1e-9);
  }
}

// -------------------------------------------------------- Workload I/O ----

TEST(WorkloadIoTest, ParsesTheDocumentedExample) {
  std::istringstream in(R"(
# 8-port switch, one GB stream, one BE hog, one GL heartbeat
radix 8
flow src=0 dst=7 class=gb rate=0.30 len=8 inject=bernoulli load=0.25
flow src=1 dst=7 class=be len=8 inject=bernoulli load=0.8
flow src=2 dst=7 class=gl len=1 inject=bernoulli load=0.005
gl_reservation dst=7 rate=0.05 len=1
)");
  const Workload w = parse_workload(in, "example");
  EXPECT_EQ(w.radix(), 8u);
  ASSERT_EQ(w.num_flows(), 3u);
  EXPECT_EQ(w.flow(0).cls, TrafficClass::GuaranteedBandwidth);
  EXPECT_DOUBLE_EQ(w.flow(0).reserved_rate, 0.30);
  EXPECT_EQ(w.flow(0).len_max, 8u);
  EXPECT_EQ(w.flow(1).cls, TrafficClass::BestEffort);
  EXPECT_EQ(w.flow(2).cls, TrafficClass::GuaranteedLatency);
  EXPECT_DOUBLE_EQ(w.gl_reservation_rate(7), 0.05);
  EXPECT_EQ(w.gl_reservation_packet_len(7), 1u);
}

TEST(WorkloadIoTest, ParsesEveryInjectKindAndOptionalFields) {
  std::istringstream in(R"(
radix 4
flow src=0 dst=1 class=gb rate=0.2 len_min=2 len_max=6 inject=onoff load=0.1 on=50 off=150
flow src=1 dst=1 class=be inject=periodic load=0.25 len=4
flow src=2 dst=1 class=gl inject=burst burst_start=100 burst_packets=7 len=2
flow src=3 dst=1 class=be prio=3 load=0.1
)");
  const Workload w = parse_workload(in, "kinds");
  ASSERT_EQ(w.num_flows(), 4u);
  EXPECT_EQ(w.flow(0).inject, InjectKind::OnOff);
  EXPECT_EQ(w.flow(0).len_min, 2u);
  EXPECT_EQ(w.flow(0).len_max, 6u);
  EXPECT_DOUBLE_EQ(w.flow(0).mean_on_cycles, 50.0);
  EXPECT_DOUBLE_EQ(w.flow(0).mean_off_cycles, 150.0);
  EXPECT_EQ(w.flow(1).inject, InjectKind::Periodic);
  EXPECT_EQ(w.flow(2).inject, InjectKind::BurstOnce);
  EXPECT_EQ(w.flow(2).burst_start, 100u);
  EXPECT_EQ(w.flow(2).burst_packets, 7u);
  EXPECT_EQ(w.flow(3).legacy_priority, 3u);
}

TEST(WorkloadIoTest, RoundTripsThroughWriteAndParse) {
  std::istringstream in(R"(
radix 8
flow src=0 dst=3 class=gb rate=0.4 len=8 load=0.3
flow src=1 dst=3 class=be len_min=1 len_max=4 inject=onoff load=0.2 on=80 off=40
gl_reservation dst=3 rate=0.1 len=2
)");
  const Workload original = parse_workload(in, "round");
  std::ostringstream out;
  write_workload(out, original);
  std::istringstream back(out.str());
  const Workload reparsed = parse_workload(back, "reparsed");
  ASSERT_EQ(reparsed.num_flows(), original.num_flows());
  for (FlowId f = 0; f < original.num_flows(); ++f) {
    EXPECT_EQ(reparsed.flow(f).src, original.flow(f).src);
    EXPECT_EQ(reparsed.flow(f).dst, original.flow(f).dst);
    EXPECT_EQ(reparsed.flow(f).cls, original.flow(f).cls);
    EXPECT_DOUBLE_EQ(reparsed.flow(f).reserved_rate,
                     original.flow(f).reserved_rate);
    EXPECT_EQ(reparsed.flow(f).len_min, original.flow(f).len_min);
    EXPECT_EQ(reparsed.flow(f).len_max, original.flow(f).len_max);
    EXPECT_EQ(reparsed.flow(f).inject, original.flow(f).inject);
    EXPECT_DOUBLE_EQ(reparsed.flow(f).inject_rate,
                     original.flow(f).inject_rate);
  }
  EXPECT_DOUBLE_EQ(reparsed.gl_reservation_rate(3), 0.1);
}

/// Expects `fn` to throw ssq::ConfigError whose message contains `needle`.
template <typename Fn>
void expect_config_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ssq::ConfigError containing '" << needle << "'";
  } catch (const ssq::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(WorkloadIoErrorTest, RejectsGarbage) {
  auto parse = [](const char* text) {
    return [text] {
      std::istringstream in(text);
      (void)parse_workload(in, "bad");
    };
  };
  expect_config_error(parse("flow src=0 dst=1\n"), "radix");
  expect_config_error(parse("radix 8\nflow dst=1\n"), "missing field 'src'");
  expect_config_error(parse("radix 8\nflow src=0 dst=1 class=xx\n"),
                      "unknown class");
  expect_config_error(parse("radix 8\nflow src=0 dst=1 load=abc\n"),
                      "not a number");
  expect_config_error(parse("radix 8\nblah x=1\n"), "unknown directive");
  expect_config_error(parse("radix 99\n"), "out of range");
  expect_config_error(parse(""), "empty workload");
  expect_config_error(parse("radix 8x\n"), "radix '8x'");
  expect_config_error(parse("radix 8\nflow src=1.9 dst=2 load=0.1\n"), "'src'");
  expect_config_error(parse("radix 8\nflow src=0 dst=1 len=1e30\n"),
                      "'len'");
  expect_config_error(
      parse("radix 8\ngl_reservation dst=1 rate=0.05 lne=4\n"), "'lne'");
  expect_config_error(parse("radix 8\nflow src=0 dst=1 load=0.1 load=0.2\n"),
                      "'load' given twice");
}

TEST(WorkloadErrorTest, OverSubscriptionThrows) {
  Workload w(2);
  w.add_flow(gb_flow(0, 1, 0.7, 8, 0.1));
  w.add_flow(gb_flow(1, 1, 0.7, 8, 0.1));
  expect_config_error([&] { w.validate(); }, "over-subscribed");
}

TEST(FlowSpecErrorTest, GbWithoutReservationThrows) {
  FlowSpec f;
  f.cls = TrafficClass::GuaranteedBandwidth;
  f.inject_rate = 0.1;
  expect_config_error([&] { f.validate(4); }, "reserve");
}

}  // namespace
}  // namespace ssq::traffic
