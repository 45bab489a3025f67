// Property tests for the bit-sliced arbitration kernel.
//
// The packed lane-mask mirrors (OutputQosArbiter::lane_mask) are maintained
// incrementally — epoch wraps shift them, halve/reset management transforms
// them, grants re-slot single bits — instead of being recomputed from the
// per-input auxVC counters. These tests drive randomized sequences of every
// event that can move a counter (grants, epoch wraps, counter-policy
// management, lane quarantines, injected faults, scrub repairs) and assert
// the documented invariant: after resync_lane_masks(), bit i of lane_mask(m)
// is set iff aux_vc(i).arb_level() == m, with every input in exactly one
// lane. A second suite pits twin scalar/bitsliced/SIMD arbiters against
// identical request and fault streams and requires identical winners, and a
// third re-checks the mirrors inside full switch runs produced by the fuzz
// scenario generator.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "check/scenario.hpp"
#include "core/allocation.hpp"
#include "core/output_arbiter.hpp"
#include "core/params.hpp"
#include "sim/rng.hpp"
#include "switch/crossbar.hpp"

namespace ssq::core {
namespace {

SsvcParams small_params(CounterPolicy policy) {
  SsvcParams p;
  // Narrow registers so epoch wraps and saturation events fire every few
  // dozen cycles instead of every few thousand.
  p.level_bits = 2;
  p.lsb_bits = 5;
  p.policy = policy;
  return p;
}

OutputAllocation full_gb_alloc(std::uint32_t radix) {
  OutputAllocation alloc = OutputAllocation::none(radix);
  for (std::uint32_t i = 0; i < radix; ++i) {
    alloc.gb_rate[i] = 0.8 / static_cast<double>(radix);
  }
  alloc.gb_packet_len = 4;
  alloc.gl_rate = 0.1;
  alloc.gl_packet_len = 4;
  return alloc;
}

/// The invariant under test: resync puts every input's bit in exactly the
/// lane equal to its raw sensed thermometer level.
void expect_mirrors_exact(OutputQosArbiter& arb, const char* context) {
  arb.resync_lane_masks();
  const std::uint32_t lanes = arb.params().gb_levels();
  std::uint64_t seen = 0;
  for (std::uint32_t m = 0; m < lanes; ++m) {
    const std::uint64_t mask = arb.lane_mask(m);
    EXPECT_EQ(seen & mask, 0u)
        << context << ": input present in two lanes (lane " << m << ")";
    seen |= mask;
    for (std::uint64_t w = mask; w != 0; w &= w - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(w));
      EXPECT_EQ(arb.aux_vc(i).arb_level(), m)
          << context << ": lane_mask(" << m << ") claims input " << i
          << " but its raw level is " << arb.aux_vc(i).arb_level();
    }
  }
  for (InputId i = 0; i < arb.radix(); ++i) {
    EXPECT_NE(seen & (1ULL << i), 0u)
        << context << ": input " << i << " is in no lane at all";
  }
}

/// Drives one arbiter through `steps` random events drawn from `rng`.
/// Returns the number of mirror checks performed (sanity that the loop ran).
int drive_random_events(OutputQosArbiter& arb, Rng& rng, int steps,
                        const char* context) {
  const std::uint32_t radix = arb.radix();
  const std::uint32_t lanes = arb.params().gb_levels();
  Cycle now = 0;
  int checks = 0;
  for (int step = 0; step < steps; ++step) {
    // Jumps up to ~2 epochs ahead so multi-wrap advance_to paths run too.
    now += rng.below(2 * arb.params().epoch_cycles() + 1);
    arb.advance_to(now);
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2: {  // GB grant burst — drives levels up until saturation
        const auto i = static_cast<InputId>(rng.below(radix));
        const auto burst = 1 + rng.below(4);
        for (std::uint64_t b = 0; b < burst; ++b) {
          arb.on_grant(i, TrafficClass::GuaranteedBandwidth,
                       1 + static_cast<std::uint32_t>(rng.below(8)), now);
        }
        break;
      }
      case 3: {  // BE grant — moves LRG only; mirrors must not move
        arb.on_grant(static_cast<InputId>(rng.below(radix)),
                     TrafficClass::BestEffort,
                     1 + static_cast<std::uint32_t>(rng.below(8)), now);
        break;
      }
      case 4: {  // lane quarantine (remaps sensed levels, not raw mirrors)
        arb.quarantine_lane(static_cast<std::uint32_t>(rng.below(lanes)));
        break;
      }
      case 5: {  // fault: flip a stored-value bit behind the mirror's back
        auto& vc = arb.aux_vc_mut(static_cast<InputId>(rng.below(radix)));
        vc.fault_flip_value(static_cast<std::uint32_t>(
            rng.below(arb.params().level_bits + arb.params().lsb_bits)));
        break;
      }
      case 6: {  // fault: corrupt the thermometer code itself
        auto& vc = arb.aux_vc_mut(static_cast<InputId>(rng.below(radix)));
        vc.fault_flip_code(static_cast<std::uint32_t>(rng.below(lanes)));
        break;
      }
      case 7: {  // scrub pass — repairs corruption, may rewrite levels
        arb.scrub(now);
        break;
      }
    }
    if (step % 5 == 0) {
      expect_mirrors_exact(arb, context);
      ++checks;
    }
  }
  expect_mirrors_exact(arb, context);
  return checks + 1;
}

TEST(KernelMirror, RandomEventSequencesKeepMirrorsExact) {
  const std::array<CounterPolicy, 3> policies = {
      CounterPolicy::SubtractRealClock, CounterPolicy::Halve,
      CounterPolicy::Reset};
  const std::array<std::uint32_t, 3> radices = {5, 17, 64};
  Rng rng(0xbead5);
  for (const CounterPolicy policy : policies) {
    for (const std::uint32_t radix : radices) {
      OutputQosArbiter arb(radix, small_params(policy), full_gb_alloc(radix),
                           GlPolicing::Stall, 32, ArbKernel::Bitsliced);
      const int checks =
          drive_random_events(arb, rng, 400, to_string(policy));
      EXPECT_GT(checks, 50);
      if (HasFailure()) return;  // one broken trial floods the log
    }
  }
}

TEST(KernelMirror, EpochWrapShiftsEveryOccupiedLane) {
  // Deterministic wrap check: park inputs on distinct levels, cross exactly
  // one epoch boundary, and require every mirror bit to have shifted down in
  // lock-step with the counters.
  const std::uint32_t radix = 8;
  OutputQosArbiter arb(radix, small_params(CounterPolicy::SubtractRealClock),
                       full_gb_alloc(radix), GlPolicing::Stall, 32,
                       ArbKernel::Bitsliced);
  arb.advance_to(0);
  for (InputId i = 0; i < radix; ++i) {
    for (InputId g = 0; g <= i; ++g) {
      arb.on_grant(i, TrafficClass::GuaranteedBandwidth, 8, 0);
    }
  }
  expect_mirrors_exact(arb, "pre-wrap");
  std::vector<std::uint32_t> before(radix);
  for (InputId i = 0; i < radix; ++i) before[i] = arb.aux_vc(i).arb_level();

  arb.advance_to(arb.params().epoch_cycles());
  expect_mirrors_exact(arb, "post-wrap");
  for (InputId i = 0; i < radix; ++i) {
    EXPECT_LE(arb.aux_vc(i).arb_level(), before[i]) << "input " << i;
  }
}

TEST(KernelMirror, CorruptedInputStaysDirtyUntilScrubbed) {
  const std::uint32_t radix = 8;
  OutputQosArbiter arb(radix, small_params(CounterPolicy::SubtractRealClock),
                       full_gb_alloc(radix), GlPolicing::Stall, 32,
                       ArbKernel::Bitsliced);
  arb.advance_to(0);
  arb.aux_vc_mut(3).fault_flip_code(1);
  ASSERT_TRUE(arb.aux_vc(3).corrupted());

  // Resync re-slots the bit to the corrupted read — but the input must stay
  // on the dirty list (the XOR overlay is pinned to physical cells, so the
  // incremental transforms no longer track it).
  expect_mirrors_exact(arb, "corrupted");
  EXPECT_NE(arb.dirty_inputs() & (1ULL << 3), 0u);

  const std::uint32_t repairs = arb.scrub(0);
  EXPECT_GE(repairs, 1u);
  expect_mirrors_exact(arb, "scrubbed");
  arb.resync_lane_masks();
  EXPECT_EQ(arb.dirty_inputs(), 0u);
}

// ---- scalar vs bit-sliced pick equivalence --------------------------------

TEST(KernelEquivalence, TwinArbitersAgreeOnEveryPick) {
  const std::array<GlPolicing, 2> policings = {GlPolicing::Stall,
                                               GlPolicing::Demote};
  Rng rng(0xface7);
  for (const GlPolicing policing : policings) {
    for (const std::uint32_t radix : {3u, 16u, 64u}) {
      const SsvcParams params = small_params(CounterPolicy::Halve);
      const OutputAllocation alloc = full_gb_alloc(radix);
      OutputQosArbiter scalar(radix, params, alloc, policing, 4,
                              ArbKernel::Scalar);
      OutputQosArbiter sliced(radix, params, alloc, policing, 4,
                              ArbKernel::Bitsliced);
      OutputQosArbiter vec(radix, params, alloc, policing, 4,
                           ArbKernel::Simd);
      ASSERT_EQ(scalar.kernel(), ArbKernel::Scalar);
      ASSERT_EQ(sliced.kernel(), ArbKernel::Bitsliced);
      ASSERT_EQ(vec.kernel(), ArbKernel::Simd);

      Cycle now = 0;
      std::vector<ClassRequest> reqs;
      for (int round = 0; round < 600; ++round) {
        now += rng.below(40);
        scalar.advance_to(now);
        sliced.advance_to(now);
        vec.advance_to(now);

        reqs.clear();
        for (InputId i = 0; i < radix; ++i) {
          if (!rng.bernoulli(0.4)) continue;
          const std::uint64_t c = rng.below(3);
          reqs.push_back({i,
                          c == 0   ? TrafficClass::GuaranteedLatency
                          : c == 1 ? TrafficClass::GuaranteedBandwidth
                                   : TrafficClass::BestEffort,
                          1 + static_cast<std::uint32_t>(rng.below(8))});
        }

        const InputId w1 = scalar.pick(reqs, now);
        const InputId w2 = sliced.pick(reqs, now);
        const InputId w3 = vec.pick(reqs, now);
        ASSERT_EQ(w1, w2) << "round " << round << " radix " << radix;
        ASSERT_EQ(w1, w3) << "round " << round << " radix " << radix
                          << " (simd)";
        if (w1 == kNoPort) continue;
        ASSERT_EQ(scalar.picked_class(), sliced.picked_class())
            << "round " << round;
        ASSERT_EQ(scalar.picked_class(), vec.picked_class())
            << "round " << round << " (simd)";
        // Apply the grant to ALL so state stays in lock-step; the granted
        // class is the post-policing one (a demoted GL charges as BE).
        std::uint32_t len = 1;
        for (const auto& r : reqs) {
          if (r.input == w1) len = r.length;
        }
        scalar.on_grant(w1, scalar.picked_class(), len, now);
        sliced.on_grant(w1, sliced.picked_class(), len, now);
        vec.on_grant(w1, vec.picked_class(), len, now);
      }
      // Final cross-check: identical internal levels after 600 rounds.
      for (InputId i = 0; i < radix; ++i) {
        EXPECT_EQ(scalar.aux_vc(i).arb_level(), sliced.aux_vc(i).arb_level())
            << "input " << i;
        EXPECT_EQ(scalar.aux_vc(i).arb_level(), vec.aux_vc(i).arb_level())
            << "input " << i << " (simd)";
      }
      expect_mirrors_exact(sliced, "twin-final");
      expect_mirrors_exact(vec, "twin-final-simd");
    }
  }
}

TEST(KernelEquivalence, AllKernelsAgreeUnderFaultsAndQuarantine) {
  // The three kernels share one masked pick path and differ only in the GB
  // lane search: the scalar kernel reads every requester's sensed level,
  // the bit-sliced and SIMD kernels search the lane-mask mirrors. So all
  // three must agree even when the mirrors go stale: injected counter
  // faults put inputs on the dirty list, lane quarantines remap sensed
  // levels, and scrub passes repair cells — all of which the mask searches
  // resolve via resync before picking. LRG flop flips break the total order
  // and send ties through the fault-tolerant fallback. Every twin receives
  // identical fault coordinates, so their state (including corruption)
  // stays lock-step.
  Rng rng(0x51d0f);
  for (const std::uint32_t radix : {7u, 33u, 64u}) {
    const SsvcParams params = small_params(CounterPolicy::SubtractRealClock);
    const OutputAllocation alloc = full_gb_alloc(radix);
    const std::uint32_t lanes = params.gb_levels();
    std::array<OutputQosArbiter, 3> twins = {
        OutputQosArbiter(radix, params, alloc, GlPolicing::Stall, 4,
                         ArbKernel::Scalar),
        OutputQosArbiter(radix, params, alloc, GlPolicing::Stall, 4,
                         ArbKernel::Bitsliced),
        OutputQosArbiter(radix, params, alloc, GlPolicing::Stall, 4,
                         ArbKernel::Simd)};
    for (auto& t : twins) t.lrg().set_fault_tolerant(true);

    Cycle now = 0;
    std::vector<ClassRequest> reqs;
    for (int round = 0; round < 500; ++round) {
      now += rng.below(2 * params.epoch_cycles() + 1);
      for (auto& t : twins) t.advance_to(now);

      switch (rng.below(7)) {
        case 0: {  // flip a stored-value bit in all, behind the mirrors
          const auto i = static_cast<InputId>(rng.below(radix));
          const auto bit = static_cast<std::uint32_t>(
              rng.below(params.level_bits + params.lsb_bits));
          for (auto& t : twins) t.aux_vc_mut(i).fault_flip_value(bit);
          break;
        }
        case 1: {  // corrupt a thermometer code in all
          const auto i = static_cast<InputId>(rng.below(radix));
          const auto lane = static_cast<std::uint32_t>(rng.below(lanes));
          for (auto& t : twins) t.aux_vc_mut(i).fault_flip_code(lane);
          break;
        }
        case 2: {  // quarantine a lane in all
          const auto lane = static_cast<std::uint32_t>(rng.below(lanes));
          for (auto& t : twins) t.quarantine_lane(lane);
          break;
        }
        case 3: {  // scrub all (repair counts must agree too)
          const std::uint32_t repairs = twins[0].scrub(now);
          EXPECT_EQ(twins[1].scrub(now), repairs) << "round " << round;
          EXPECT_EQ(twins[2].scrub(now), repairs) << "round " << round;
          break;
        }
        case 4: {  // flip the same LRG priority flop in all
          const auto i = static_cast<InputId>(rng.below(radix));
          const auto j = static_cast<InputId>(rng.below(radix));
          for (auto& t : twins) t.lrg().fault_flip(i, j);
          break;
        }
        default:
          break;  // plain request round
      }

      reqs.clear();
      for (InputId i = 0; i < radix; ++i) {
        if (!rng.bernoulli(0.5)) continue;
        const std::uint64_t c = rng.below(3);
        reqs.push_back({i,
                        c == 0   ? TrafficClass::GuaranteedLatency
                        : c == 1 ? TrafficClass::GuaranteedBandwidth
                                 : TrafficClass::BestEffort,
                        1 + static_cast<std::uint32_t>(rng.below(8))});
      }
      for (std::size_t k = 1; k < twins.size(); ++k) {
        ASSERT_EQ(twins[k].dirty_inputs(), twins[0].dirty_inputs())
            << "round " << round << " radix " << radix << " kernel "
            << to_string(twins[k].kernel());
      }

      const InputId w = twins[0].pick(reqs, now);
      for (std::size_t k = 1; k < twins.size(); ++k) {
        ASSERT_EQ(twins[k].pick(reqs, now), w)
            << "round " << round << " radix " << radix << " kernel "
            << to_string(twins[k].kernel());
      }
      if (w == kNoPort) continue;
      for (std::size_t k = 1; k < twins.size(); ++k) {
        ASSERT_EQ(twins[k].picked_class(), twins[0].picked_class())
            << "round " << round << " kernel " << to_string(twins[k].kernel());
      }
      std::uint32_t len = 1;
      for (const auto& r : reqs) {
        if (r.input == w) len = r.length;
      }
      for (auto& t : twins) t.on_grant(w, t.picked_class(), len, now);
    }
    for (InputId i = 0; i < radix; ++i) {
      for (std::size_t k = 1; k < twins.size(); ++k) {
        EXPECT_EQ(twins[k].aux_vc(i).arb_level(),
                  twins[0].aux_vc(i).arb_level())
            << "input " << i << " radix " << radix;
        EXPECT_EQ(twins[k].lrg().rank(i), twins[0].lrg().rank(i))
            << "input " << i << " radix " << radix;
      }
    }
    for (auto& t : twins) expect_mirrors_exact(t, to_string(t.kernel()));
    if (HasFailure()) return;
  }
}

// ---- full-switch integration via the fuzz scenario generator --------------

TEST(KernelMirror, GeneratedScenarioRunsKeepMirrorsExact) {
  for (std::uint64_t index = 0; index < 6; ++index) {
    check::Scenario s = check::generate_scenario(index, 0x515e7);
    s.kernel = ArbKernel::Bitsliced;
    check::ScenarioRun rig = check::instantiate(s);
    const Cycle chunk = s.cycles / 4 + 1;
    for (int leg = 0; leg < 4; ++leg) {
      rig.sim->run(chunk);
      for (OutputId o = 0; o < s.radix; ++o) {
        expect_mirrors_exact(rig.sim->qos_arbiter(o), s.name.c_str());
      }
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ssq::core
