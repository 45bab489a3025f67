// Parameterized property suites (TEST_P / INSTANTIATE_TEST_SUITE_P):
//   * rate adherence over 20 random allocation vectors x packet sizes
//     (§4.2's "20 combinations of reserved rates and a variety of packet
//     sizes ... within 2 % of their reserved rates"),
//   * throughput ceiling L/(L+1) across packet sizes,
//   * the Eq. (1) GL bound across GL population sizes,
//   * counter-policy invariants under random grant streams,
//   * closed-form epoch wraps against one wrap at a time.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "check/reference.hpp"
#include "core/aux_vc.hpp"
#include "core/output_arbiter.hpp"
#include "qosmath/gl_bound.hpp"
#include "qosmath/vtick_analysis.hpp"
#include "sim/rng.hpp"
#include "switch/simulator.hpp"
#include "traffic/workload.hpp"

namespace ssq {
namespace {

using sw::SwitchConfig;
using traffic::FlowSpec;
using traffic::InjectKind;
using traffic::Workload;

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

SwitchConfig qos_config(core::CounterPolicy policy =
                            core::CounterPolicy::SubtractRealClock) {
  SwitchConfig c;
  c.radix = 8;
  c.ssvc.level_bits = 4;
  c.ssvc.lsb_bits = 5;
  c.ssvc.vtick_shift = 2;
  c.ssvc.policy = policy;
  c.seed = 99;
  return c;
}

/// Random admissible allocation over 8 inputs summing to ~0.9.
std::vector<double> random_rates(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  std::vector<double> r(8);
  double sum = 0.0;
  for (auto& v : r) {
    v = 0.02 + rng.uniform();
    sum += v;
  }
  for (auto& v : r) v = v / sum * 0.9;
  return r;
}

// ----------------------------------------- §4.2 rate-adherence sweep ----

class RateAdherenceP
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(RateAdherenceP, SaturatedFlowsReceiveReservedShares) {
  const auto [combo, packet_len] = GetParam();
  const auto rates = random_rates(static_cast<std::uint64_t>(combo));
  Workload w(8);
  for (InputId i = 0; i < 8; ++i) {
    w.add_flow(gb_flow(i, 0, rates[i], packet_len, 0.9));  // all saturated
  }
  SwitchConfig c = qos_config();
  c.seed = static_cast<std::uint64_t>(combo) + 1;
  const auto r = sw::run_experiment(c, std::move(w), 5000, 60000);
  const double capacity = static_cast<double>(packet_len) / (packet_len + 1);
  EXPECT_NEAR(r.total_accepted_rate, capacity, 0.02);
  // Each flow gets at least its reserved fraction of the delivered total,
  // within a 2 % of-capacity tolerance plus Vtick quantisation.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GE(r.flows[i].accepted_rate,
              rates[i] * r.total_accepted_rate - 0.02)
        << "combo " << combo << " len " << packet_len << " flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TwentyCombinations, RateAdherenceP,
    ::testing::Combine(::testing::Range(0, 20),
                       ::testing::Values(8u)),
    [](const auto& pinfo) {
      return "combo" + std::to_string(std::get<0>(pinfo.param));
    });

INSTANTIATE_TEST_SUITE_P(
    PacketSizes, RateAdherenceP,
    ::testing::Combine(::testing::Values(3, 11),
                       ::testing::Values(1u, 2u, 4u, 16u)),
    [](const auto& pinfo) {
      return "combo" + std::to_string(std::get<0>(pinfo.param)) + "_len" +
             std::to_string(std::get<1>(pinfo.param));
    });

// ------------------------------------- counter policies keep adhering ----

class CounterPolicyP : public ::testing::TestWithParam<core::CounterPolicy> {};

TEST_P(CounterPolicyP, AdherenceHoldsUnderEveryPolicy) {
  // Fig. 5's caption: "All three methods were able to provide bandwidth to
  // flows on average within 2 % of their reserved rates."
  const std::vector<double> rates = {0.40, 0.20, 0.10, 0.10,
                                     0.05, 0.05, 0.05, 0.05};
  Workload w(8);
  for (InputId i = 0; i < 8; ++i) {
    w.add_flow(gb_flow(i, 0, rates[i], 8, 0.9));
  }
  SwitchConfig c = qos_config(GetParam());
  const auto r = sw::run_experiment(c, std::move(w), 5000, 100000);
  for (std::size_t i = 0; i < 8; ++i) {
    // The guarantee the hardware can make is against the QUANTISED Vtick:
    // the finite register shifts the effective reserved rate slightly.
    const double effective =
        qosmath::vtick_error(c.ssvc, rates[i], 8).effective_rate;
    EXPECT_GE(r.flows[i].accepted_rate,
              effective * r.total_accepted_rate - 0.02)
        << to_string(GetParam()) << " flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CounterPolicyP,
                         ::testing::Values(
                             core::CounterPolicy::SubtractRealClock,
                             core::CounterPolicy::Halve,
                             core::CounterPolicy::Reset),
                         [](const auto& pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

// ------------------------------------------- throughput ceiling L/(L+1) ----

class PacketSizeP : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PacketSizeP, SaturatedCeilingIsLOverLPlusOne) {
  const std::uint32_t len = GetParam();
  Workload w(8);
  const FlowId id = w.add_flow(gb_flow(0, 1, 1.0, len, 1.0));
  sw::CrossbarSwitch sw(qos_config(), std::move(w));
  sw.warmup(2000);
  sw.measure(20000);
  const double ceiling = static_cast<double>(len) / (len + 1);
  EXPECT_NEAR(sw.throughput().rate(id), ceiling, 0.01) << "len " << len;
}

INSTANTIATE_TEST_SUITE_P(Lengths, PacketSizeP,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         [](const auto& pinfo) {
                           return "len" + std::to_string(pinfo.param);
                         });

// ------------------------------------------------ Eq. (1) bound sweep ----

class GlBoundP : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GlBoundP, MeasuredWaitNeverExceedsEq1) {
  const std::uint32_t n_gl = GetParam();
  Workload w(8);
  // GB background from the remaining inputs, saturated.
  for (InputId i = n_gl; i < 8; ++i) {
    w.add_flow(gb_flow(i, 0, 0.5 / (8 - n_gl), 8, 1.0));
  }
  std::vector<FlowId> gl_flows;
  for (InputId i = 0; i < n_gl; ++i) {
    FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedLatency;
    f.len_min = f.len_max = 2;
    f.inject = InjectKind::Bernoulli;
    f.inject_rate = 0.02;
    gl_flows.push_back(w.add_flow(f));
  }
  w.set_gl_reservation(0, 0.2, 2);
  SwitchConfig c = qos_config();
  c.buffers.gl_flits = 4;
  sw::CrossbarSwitch sw(c, std::move(w));
  sw.warmup(1000);
  sw.measure(60000);
  const double bound = qosmath::gl_wait_bound(
      {.l_max = 8, .l_min = 2, .n_gl = n_gl, .buffer_flits = 4});
  for (const FlowId f : gl_flows) {
    ASSERT_GT(sw.delivered_packets(f), 50u);
    EXPECT_LE(sw.wait().flow_summary(f).max(), bound) << "N_GL " << n_gl;
  }
}

INSTANTIATE_TEST_SUITE_P(Population, GlBoundP, ::testing::Values(1u, 2u, 4u),
                         [](const auto& pinfo) {
                           return "ngl" + std::to_string(pinfo.param);
                         });

// ------------------------------------------- packet conservation ----

class ConservationP : public ::testing::TestWithParam<int> {};

TEST_P(ConservationP, EveryInjectedPacketIsDeliveredExactlyOnce) {
  // Random single-burst workload over all classes; after the network drains,
  // delivered counts must equal created counts for every flow — no loss, no
  // duplication, regardless of buffering, arbitration, or class priorities.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  constexpr std::uint32_t kRadix = 6;
  Workload w(kRadix);
  std::vector<double> gb_budget(kRadix, 0.9);  // remaining GB rate per dst
  std::vector<std::uint32_t> bursts;
  const auto n_flows = 4 + rng.below(8);
  for (std::uint64_t k = 0; k < n_flows; ++k) {
    FlowSpec f;
    f.src = static_cast<InputId>(rng.below(kRadix));
    f.dst = static_cast<OutputId>(rng.below(kRadix));
    const auto cls = rng.below(3);
    f.len_min = 1 + static_cast<std::uint32_t>(rng.below(4));
    f.len_max = f.len_min + static_cast<std::uint32_t>(rng.below(4));
    f.inject = InjectKind::BurstOnce;
    f.burst_start = rng.below(500);
    f.burst_packets = 1 + static_cast<std::uint32_t>(rng.below(30));
    if (cls == 0) {
      f.cls = TrafficClass::BestEffort;
    } else if (cls == 1) {
      f.cls = TrafficClass::GuaranteedBandwidth;
      // A random admissible reservation; skip if this crosspoint is taken
      // or the destination budget is exhausted.
      if (gb_budget[f.dst] < 0.05) {
        f.cls = TrafficClass::BestEffort;
      } else {
        const double rate = 0.05 + rng.uniform() * (gb_budget[f.dst] - 0.05);
        f.cls = TrafficClass::GuaranteedBandwidth;
        f.reserved_rate = rate;
      }
    } else {
      f.cls = TrafficClass::GuaranteedLatency;  // no reservation: unpoliced
    }
    if (f.cls == TrafficClass::GuaranteedBandwidth) {
      // Crosspoint exclusivity: only one GB flow per (src, dst).
      bool taken = false;
      for (const auto& existing : w.flows()) {
        if (existing.cls == TrafficClass::GuaranteedBandwidth &&
            existing.src == f.src && existing.dst == f.dst) {
          taken = true;
        }
      }
      if (taken) f.cls = TrafficClass::BestEffort;
    }
    if (f.cls == TrafficClass::GuaranteedBandwidth) {
      gb_budget[f.dst] -= f.reserved_rate;
    } else {
      f.reserved_rate = 0.0;
    }
    w.add_flow(f);
    bursts.push_back(f.burst_packets);
  }

  SwitchConfig c = qos_config();
  c.radix = kRadix;
  c.seed = static_cast<std::uint64_t>(GetParam());
  sw::CrossbarSwitch sim(c, std::move(w));
  sim.warmup(0);
  sim.measure(30000);  // plenty of time to drain every burst
  for (FlowId f = 0; f < bursts.size(); ++f) {
    EXPECT_EQ(sim.created_packets(f), bursts[f]) << "flow " << f;
    EXPECT_EQ(sim.delivered_packets(f), bursts[f]) << "flow " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, ConservationP,
                         ::testing::Range(0, 10),
                         [](const auto& pinfo) {
                           return "seed" + std::to_string(pinfo.param);
                         });

// ------------------------------------------------ AuxVc invariants ----

class AuxVcInvariantP : public ::testing::TestWithParam<core::CounterPolicy> {
};

TEST_P(AuxVcInvariantP, CodeLevelTracksValueUnderRandomOps) {
  core::SsvcParams p;
  p.level_bits = 3;
  p.lsb_bits = 5;
  p.policy = GetParam();
  core::AuxVc vc(p, 17);
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int op = 0; op < 50000; ++op) {
    switch (rng.below(4)) {
      case 0:
        vc.on_grant(rng.below(p.epoch_cycles()));
        break;
      case 1:
        if (p.policy == core::CounterPolicy::SubtractRealClock)
          vc.epoch_wrap();
        break;
      case 2:
        if (p.policy == core::CounterPolicy::Halve) vc.halve();
        break;
      case 3:
        if (p.policy == core::CounterPolicy::Reset) vc.reset();
        break;
    }
    ASSERT_EQ(vc.code().level(), vc.level());
    ASSERT_LE(vc.value(), vc.cap());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AuxVcInvariantP,
                         ::testing::Values(
                             core::CounterPolicy::SubtractRealClock,
                             core::CounterPolicy::Halve,
                             core::CounterPolicy::Reset,
                             core::CounterPolicy::None),
                         [](const auto& pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

// ------------------------------------------ closed-form epoch wraps ----
//
// OutputQosArbiter::advance_to catches up k epochs with one epoch_wrap(k)
// per counter; that is exact only if it equals k single wraps from every
// state a counter can be in, upsets included.

/// The wrapping policies: every finite-counter design keeps real time with
/// the epoch wrap.
constexpr core::CounterPolicy kWrappingPolicies[] = {
    core::CounterPolicy::SubtractRealClock, core::CounterPolicy::Halve,
    core::CounterPolicy::Reset};

/// A counter driven by a few grants at random epoch-relative times, then
/// left clean (upset 0), value-flipped (1) or code-flipped (2).
core::AuxVc random_counter(const core::SsvcParams& p, Rng& rng, int upset) {
  core::AuxVc vc(p, 1 + rng.below(2 * p.epoch_cycles()));
  const std::uint64_t grants = rng.below(2 * p.gb_levels());
  for (std::uint64_t g = 0; g < grants; ++g) {
    vc.on_grant(rng.below(p.epoch_cycles()));
  }
  if (upset == 1) {
    vc.fault_flip_value(static_cast<std::uint32_t>(
        rng.below(vc.register_bits())));
  } else if (upset == 2) {
    vc.fault_flip_code(static_cast<std::uint32_t>(rng.below(p.gb_levels())));
  }
  return vc;
}

TEST(ClosedFormWrap, EpochWrapOfKEqualsKSingleWraps) {
  Rng rng(2024);
  std::uint64_t checked = 0;
  std::uint64_t clean_zeros = 0;
  for (const core::CounterPolicy policy : kWrappingPolicies) {
    for (std::uint32_t lsb = 4; lsb <= 8; ++lsb) {
      for (std::uint32_t level_bits = 2; level_bits <= 4; ++level_bits) {
        core::SsvcParams p;
        p.policy = policy;
        p.lsb_bits = lsb;
        p.level_bits = level_bits;
        for (int trial = 0; trial < 20; ++trial) {
          for (int upset = 0; upset < 3; ++upset) {
            const core::AuxVc start = random_counter(p, rng, upset);
            // k runs past the cap: 2^level_bits wraps drain any register.
            for (std::uint64_t k = 1; k <= p.gb_levels() + 2; ++k) {
              core::AuxVc closed = start;
              closed.epoch_wrap(k);
              core::AuxVc stepped = start;
              for (std::uint64_t j = 0; j < k; ++j) stepped.epoch_wrap();
              const std::string at = std::string(to_string(policy)) +
                                     " lsb=" + std::to_string(lsb) +
                                     " level_bits=" +
                                     std::to_string(level_bits) +
                                     " upset=" + std::to_string(upset) +
                                     " start=" + std::to_string(start.value()) +
                                     " k=" + std::to_string(k);
              ASSERT_EQ(closed.value(), stepped.value()) << at;
              ASSERT_EQ(closed.corrupted(), stepped.corrupted()) << at;
              ASSERT_EQ(closed.level(), stepped.level()) << at;
              ASSERT_EQ(closed.code().level(), stepped.code().level()) << at;
              ASSERT_EQ(closed.arb_level(), stepped.arb_level()) << at;
              if (start.clean_zero()) {
                // The arbiter skips these: a wrap must leave them as is.
                ++clean_zeros;
                ASSERT_EQ(closed.value(), 0u) << at;
                ASSERT_EQ(closed.code().raw_bits(), start.code().raw_bits())
                    << at;
                ASSERT_FALSE(closed.corrupted()) << at;
              }
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(clean_zeros, 0u);
  EXPECT_GT(checked, 10000u);
}

TEST(ClosedFormWrap, ShiftDownOfKEqualsKSingleShifts) {
  Rng rng(7);
  for (std::uint32_t width = 1; width <= 16; ++width) {
    for (std::uint32_t level = 0; level < width; ++level) {
      for (int flipped = 0; flipped < 2; ++flipped) {
        core::ThermometerCode start(width, level);
        if (flipped == 1) {
          start.fault_flip(static_cast<std::uint32_t>(rng.below(width)));
        }
        for (std::uint64_t k = 1; k <= width + 2; ++k) {
          core::ThermometerCode closed = start;
          closed.shift_down(k);
          core::ThermometerCode stepped = start;
          for (std::uint64_t j = 0; j < k; ++j) stepped.shift_down();
          const std::string at = "width=" + std::to_string(width) +
                                 " level=" + std::to_string(level) +
                                 " flipped=" + std::to_string(flipped) +
                                 " k=" + std::to_string(k);
          ASSERT_EQ(closed.level(), stepped.level()) << at;
          ASSERT_EQ(closed.raw_bits(), stepped.raw_bits()) << at;
          ASSERT_EQ(closed.corrupted(), stepped.corrupted()) << at;
          ASSERT_EQ(closed.effective_level(), stepped.effective_level())
              << at;
        }
      }
    }
  }
}

// The reference's per-epoch loop is the specification, and its version
// moves only on a wrap that changes a value: one advance_to across 10^4
// epochs must land where 10^4 single-epoch advances do.
class ReferenceCatchUpP
    : public ::testing::TestWithParam<
          std::tuple<core::CounterPolicy, check::PlantedBug>> {};

TEST_P(ReferenceCatchUpP, OneLongAdvanceEqualsEpochByEpoch) {
  const auto [policy, bug] = GetParam();
  constexpr std::uint32_t kRadix = 8;
  constexpr std::uint64_t kEpochs = 10000;
  core::SsvcParams p;
  p.policy = policy;
  p.lsb_bits = 5;
  p.level_bits = 3;
  const std::uint64_t epoch = p.epoch_cycles();
  auto alloc = core::OutputAllocation::none(kRadix);
  for (InputId i = 0; i < kRadix; ++i) alloc.gb_rate[i] = 0.01 * (i + 1);
  alloc.gb_packet_len = 2;
  Rng rng(static_cast<std::uint64_t>(policy) * 10 +
          static_cast<std::uint64_t>(bug));
  for (int trial = 0; trial < 8; ++trial) {
    check::ReferenceOutput ref(kRadix, p, alloc, core::GlPolicing::Stall, 32,
                               bug);
    // A random history: grants spread over a few epochs.
    Cycle t = 0;
    for (int g = 0; g < 40; ++g) {
      t += rng.below(epoch / 2);
      ref.advance_to(t);
      ref.on_grant(static_cast<InputId>(rng.below(kRadix)),
                   TrafficClass::GuaranteedBandwidth, t);
    }
    const Cycle end = t + kEpochs * epoch + rng.below(epoch);

    check::ReferenceOutput jumped = ref;
    jumped.advance_to(end);

    check::ReferenceOutput stepped = ref;
    std::uint64_t moves = 0;
    for (Cycle c = t - t % epoch + epoch; c <= end; c += epoch) {
      std::vector<std::uint64_t> before(kRadix);
      for (InputId i = 0; i < kRadix; ++i) before[i] = stepped.value(i);
      const std::uint64_t v = stepped.version();
      stepped.advance_to(c);
      bool changed = false;
      for (InputId i = 0; i < kRadix; ++i) {
        changed |= stepped.value(i) != before[i];
      }
      ASSERT_EQ(stepped.version() != v, changed)
          << "trial " << trial << " cycle " << c;
      moves += stepped.version() - v;
    }
    stepped.advance_to(end);

    for (InputId i = 0; i < kRadix; ++i) {
      ASSERT_EQ(jumped.value(i), stepped.value(i))
          << "trial " << trial << " input " << i;
      // 10^4 epochs drain any register, unless the wraps are skipped.
      if (bug == check::PlantedBug::None) {
        ASSERT_EQ(jumped.value(i), 0u);
      }
    }
    EXPECT_EQ(jumped.rt(), stepped.rt()) << "trial " << trial;
    EXPECT_EQ(jumped.rt(), end % epoch) << "trial " << trial;
    EXPECT_EQ(jumped.version(), stepped.version()) << "trial " << trial;
    EXPECT_EQ(jumped.version() - ref.version(), moves) << "trial " << trial;
    if (bug == check::PlantedBug::SkipEpochWrap) {
      EXPECT_EQ(moves, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WrappingPolicies, ReferenceCatchUpP,
    ::testing::Combine(::testing::ValuesIn(kWrappingPolicies),
                       ::testing::Values(check::PlantedBug::None,
                                         check::PlantedBug::SkipEpochWrap)),
    [](const auto& pinfo) {
      return std::string(to_string(std::get<0>(pinfo.param))) + "_" +
             check::to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace ssq
