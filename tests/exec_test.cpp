// ThreadPool / run_batch coverage: result ordering, serial equivalence at
// any thread count, lowest-index exception semantics, and pool reuse across
// batches. Determinism here is what lets ssq_fuzz --jobs and the sweep
// benches promise byte-identical output regardless of parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"

namespace ssq::exec {
namespace {

/// A cheap deterministic per-index value with enough mixing that ordering
/// bugs can't cancel out.
std::uint64_t mix(std::uint64_t i) {
  std::uint64_t x = i * 0x9E3779B97F4A7C15ull + 1;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return x;
}

TEST(ThreadPool, InlineWhenOneThreadRequested) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.run_indexed(5, [&](std::size_t i) { order.push_back(i); });
  // Inline mode runs on the calling thread, strictly in order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroThreadsMeansOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPool, RunBatchReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto out = run_batch<std::uint64_t>(pool, 1000, mix);
  ASSERT_EQ(out.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], mix(i));
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  ThreadPool serial(1);
  const auto expected = run_batch<std::uint64_t>(serial, 500, mix);
  for (unsigned threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run_batch<std::uint64_t>(pool, 500, mix), expected)
        << threads << " threads";
  }
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(2000);
  pool.run_indexed(2000, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyBatchIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.run_indexed(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  // Indices are claimed in order from one atomic counter, so index 3 is
  // always claimed before index 7; whichever subset of throwers actually
  // runs, the rethrown exception must be the lowest-index one — the same
  // exception a serial loop would have surfaced.
  for (unsigned threads : {1u, 4u, 8u}) {
    ThreadPool pool(threads);
    try {
      pool.run_indexed(50, [](std::size_t i) {
        if (i == 3 || i == 7) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      FAIL() << "expected an exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << threads << " threads";
    }
  }
}

TEST(ThreadPool, UsableAgainAfterAnException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(
                   10, [](std::size_t i) {
                     if (i == 0) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  const auto out = run_batch<std::uint64_t>(pool, 100, mix);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], mix(i));
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  std::uint64_t total = 0;
  for (int batch = 0; batch < 20; ++batch) {
    const auto out = run_batch<std::uint64_t>(
        pool, 64, [&](std::size_t i) { return i + 1; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  EXPECT_EQ(total, 20ull * (64ull * 65ull / 2ull));
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace ssq::exec
