// Global-allocation counting hook for the zero-allocation step() contract.
//
// The counters are defined in alloc_hook.cpp alongside replacement global
// `operator new`/`operator delete` implementations, packaged as the
// `ssq_alloc_hook` library. Link that library ONLY into binaries that need
// allocation accounting (tests/hotpath_alloc_test) — every other binary
// keeps the stock allocator and is unperturbed.
//
// Usage:
//   warm_up_the_hot_path();          // reach steady-state capacities first
//   ssq::alloc_hook::reset();
//   run_the_hot_path();
//   EXPECT_EQ(ssq::alloc_hook::allocations(), 0u);
//
// Counting is process-wide and thread-safe (relaxed atomics): a count of
// zero is exact, and any nonzero count means some thread allocated.
#pragma once

#include <cstdint>

namespace ssq::alloc_hook {

/// Zeroes both counters.
void reset() noexcept;

/// Number of global operator new calls since the last reset().
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Number of global operator delete calls since the last reset().
[[nodiscard]] std::uint64_t deallocations() noexcept;

}  // namespace ssq::alloc_hook
