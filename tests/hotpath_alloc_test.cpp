// Hot-path allocation regression: after warmup, the steady-state cycle loop
// must perform ZERO heap allocations per step — the StepScratch arena, the
// arbiter-owned request buckets, the reusable circuit ArbitrationTrace and
// the RingQueue-backed buffers exist precisely so this holds. The count is
// taken by the ssq_alloc_hook operator-new interposer (this binary links it;
// see src/sim/alloc_hook.hpp for the rules). Plus unit coverage for
// RingQueue itself, whose never-shrink regrowth is what makes the queues
// allocation-free once warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/differential.hpp"
#include "sim/alloc_hook.hpp"
#include "sim/ring_queue.hpp"
#include "switch/crossbar.hpp"
#include "traffic/workload.hpp"

namespace ssq {
namespace {

TEST(RingQueue, FifoPushPop) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 10; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 10u);
  EXPECT_EQ(q.front(), 0);
  EXPECT_EQ(q.back(), 9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, RegrowPreservesOrderAcrossWrap) {
  RingQueue<int> q;
  // Cycle the head around the ring so a regrow starts mid-buffer, then
  // verify order survives the move.
  for (int i = 0; i < 3; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  for (int i = 3; i < 40; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 38u);
  for (int i = 2; i < 40; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
}

TEST(RingQueue, PushFrontBehavesLikeDeque) {
  RingQueue<int> q;
  q.push_back(2);
  q.push_front(1);
  q.push_front(0);
  EXPECT_EQ(q.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.at(static_cast<std::size_t>(i)), i);
  }
}

TEST(RingQueue, CapacityNeverShrinksAndIsReusedWithoutAllocating) {
  RingQueue<std::uint64_t> q;
  q.reserve(64);
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 64u);
  alloc_hook::reset();
  // Churn far more elements than capacity through the warm ring: steady
  // state for a queue is exactly this pattern, and it must be free.
  for (std::uint64_t round = 0; round < 100; ++round) {
    for (std::uint64_t i = 0; i < 60; ++i) q.push_back(i);
    while (!q.empty()) q.pop_front();
  }
  EXPECT_EQ(alloc_hook::allocations(), 0u);
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingQueue, ClearKeepsCapacity) {
  RingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
}

TEST(AllocHook, CountsOperatorNew) {
  alloc_hook::reset();
  EXPECT_EQ(alloc_hook::allocations(), 0u);
  {
    // A direct operator-new call: `new` *expressions* may legally be elided
    // by the optimizer, library calls may not.
    void* p = ::operator new(256);
    ::operator delete(p);
  }
  EXPECT_GE(alloc_hook::allocations(), 1u);
  EXPECT_GE(alloc_hook::deallocations(), 1u);
}

// -- Steady-state switch allocation counts ---------------------------------

/// A stable workload: every flow's offered load is below its service rate,
/// so source and input queues converge to a fixed footprint. (Oversubscribed
/// hotspots grow their unbounded source queues forever — geometric ring
/// regrowth would show up as a slow trickle of allocations that has nothing
/// to do with the cycle loop itself.)
traffic::Workload stable_workload(std::uint32_t radix) {
  const std::uint32_t gb = radix / 2;
  traffic::Workload w(radix);
  for (InputId i = 0; i < gb; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedBandwidth;
    f.reserved_rate = 0.88 / static_cast<double>(gb);
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.8 * f.reserved_rate / 8.0;
    w.add_flow(f);
  }
  for (InputId i = gb; i < gb + 2; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedLatency;
    f.len_min = f.len_max = 2;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.004;
    w.add_flow(f);
  }
  w.set_gl_reservation(0, 0.06, 2);
  for (InputId i = gb + 2; i < radix; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.02;
    w.add_flow(f);
  }
  return w;
}

sw::SwitchConfig base_config(std::uint32_t radix) {
  sw::SwitchConfig c;
  c.radix = radix;
  c.ssvc.level_bits = 2;
  c.ssvc.lsb_bits = 8;
  c.ssvc.vtick_bits = 8;
  c.ssvc.vtick_shift = 2;
  c.buffers.be_flits = 16;
  c.buffers.gb_flits_per_output = 16;
  c.buffers.gl_flits = 4;
  c.seed = 0xDAC2014;
  return c;
}

/// Warm the switch until every queue has reached its steady capacity, then
/// assert the next `cycles` steps allocate nothing at all.
void expect_zero_alloc_steady_state(sw::SwitchConfig config,
                                    const std::string& label) {
  sw::CrossbarSwitch sim(config, stable_workload(config.radix));
  sim.warmup(20000);
  alloc_hook::reset();
  for (Cycle t = 0; t < 2000; ++t) sim.step();
  EXPECT_EQ(alloc_hook::allocations(), 0u)
      << label << ": the steady-state cycle loop allocated";
}

TEST(HotPathAllocations, SsvcSingleRequestRadix64IsAllocationFree) {
  expect_zero_alloc_steady_state(base_config(64), "ssvc/single radix 64");
}

TEST(HotPathAllocations, SsvcSingleRequestRadix8IsAllocationFree) {
  expect_zero_alloc_steady_state(base_config(8), "ssvc/single radix 8");
}

TEST(HotPathAllocations, SsvcGsfRadix64IsAllocationFree) {
  // GSF frame bookkeeping runs inside the shared step pipeline. Each GB
  // flow's quota is 1 packet per 128-cycle frame against ~0.35 offered, so
  // the regulated source queues stay bounded.
  auto config = base_config(64);
  config.gsf.enabled = true;
  config.gsf.frame_cycles = 128;
  config.gsf.barrier_cycles = 8;
  expect_zero_alloc_steady_state(config, "ssvc/gsf radix 64");
}

TEST(HotPathAllocations, IterativeMatchingIsAllocationFree) {
  auto config = base_config(16);
  config.allocation = sw::AllocationMode::IterativeMatching;
  config.match_iterations = 3;
  expect_zero_alloc_steady_state(config, "ssvc/matched radix 16");
}

TEST(HotPathAllocations, BaselineLrgIsAllocationFree) {
  auto config = base_config(16);
  config.mode = sw::ArbitrationMode::Baseline;
  config.baseline = arb::Kind::Lrg;
  expect_zero_alloc_steady_state(config, "baseline/lrg radix 16");
}

/// Checked counterpart of expect_zero_alloc_steady_state. The checker reads
/// the switch's cycle record, so no probe is ever attached either. The
/// reference models start from reset state, so the checker is attached at
/// cycle 0 and does the warm-up.
void expect_zero_alloc_checked_steady_state(
    sw::CrossbarSwitch& sim, check::DifferentialChecker& checker) {
  for (Cycle t = 0; t < 20000; ++t) {
    ASSERT_EQ(sim.probe(), nullptr);
    ASSERT_TRUE(checker.step());
  }
  const std::uint64_t grants = checker.grants_checked();
  alloc_hook::reset();
  for (Cycle t = 0; t < 2000; ++t) ASSERT_TRUE(checker.step());
  EXPECT_EQ(alloc_hook::allocations(), 0u)
      << "the checked steady-state cycle loop allocated";
  EXPECT_GT(checker.grants_checked(), grants);
  EXPECT_EQ(sim.probe(), nullptr);
}

TEST(HotPathAllocations, DifferentialCheckerWithCircuitLegIsAllocationFree) {
  // The checker rides along on every checked scenario: a checked step (cycle
  // record read, reference pick and grant, bit-level circuit leg, state
  // compare) must allocate nothing either.
  sw::CrossbarSwitch sim(base_config(8), stable_workload(8));
  check::DifferentialChecker checker(sim);
  ASSERT_TRUE(checker.options().differential);
  ASSERT_TRUE(checker.options().circuit);
  expect_zero_alloc_checked_steady_state(sim, checker);
}

TEST(HotPathAllocations, EngineModeCheckerIsAllocationFree) {
  // Under a matching engine the checker reads the engine's eligible pairs
  // (unrequested-grant and progress checks) straight from the cycle record.
  auto config = base_config(16);
  config.allocation = sw::AllocationMode::IterativeMatching;
  config.engine = arb::MatchKind::Islip;
  config.match_iterations = 2;
  sw::CrossbarSwitch sim(config, stable_workload(16));
  check::DifferentialChecker checker(sim);
  ASSERT_FALSE(checker.options().differential);
  expect_zero_alloc_checked_steady_state(sim, checker);
}

}  // namespace
}  // namespace ssq
