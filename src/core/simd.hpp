// Runtime-dispatched SIMD primitives for the arbitration kernels.
//
// Every function here computes an exact integer function of its inputs; the
// AVX2 and portable tiers are two instruction schedules of the same
// arithmetic, so results are byte-identical across tiers and across hosts.
// Dispatch is resolved once per process (cpuid + the SSQ_SIMD environment
// override) so the per-call cost is one predictable load.
//
// Tier selection:
//   * compiled out entirely with -DSSQ_NO_AVX2 (the `-mno-avx2` CI job adds
//     it) or on non-x86-64 targets — active_tier() then always reports
//     Portable;
//   * otherwise AVX2 code is emitted behind the GCC `target("avx2")`
//     attribute and entered only when __builtin_cpu_supports("avx2");
//   * SSQ_SIMD=portable forces the portable tier at runtime (CI runs the
//     whole suite both ways on the same binary to prove identity).
#pragma once

#include <cstdint>

namespace ssq::core::simd {

enum class SimdTier : std::uint8_t {
  Portable = 0,
  Avx2 = 1,
};

[[nodiscard]] constexpr const char* to_string(SimdTier t) noexcept {
  switch (t) {
    case SimdTier::Portable: return "portable";
    case SimdTier::Avx2: return "avx2";
  }
  return "?";
}

/// The tier every simd:: call below executes on, resolved once per process.
[[nodiscard]] SimdTier active_tier() noexcept;

/// LRG covering sweep: bit i (i < n) of the result is set iff input i's
/// beats-row covers every other member of `mask`, i.e.
/// (mask & ~(1<<i) & ~rows[i]) == 0. The first set bit of
/// (covering_mask(...) & mask) is exactly the winner the scalar
/// first-covering-requester loop returns; a zero intersection reproduces the
/// scalar loop's "no covering requester" (corrupt matrix) outcome.
[[nodiscard]] std::uint64_t covering_mask(const std::uint64_t* rows,
                                          std::uint32_t n,
                                          std::uint64_t mask) noexcept;

/// GB min-level scan: first lane index l < n with (lanes[l] & occ) != 0,
/// or n when every intersection is empty.
[[nodiscard]] std::uint32_t first_hit_lane(const std::uint64_t* lanes,
                                           std::uint32_t n,
                                           std::uint64_t occ) noexcept;

}  // namespace ssq::core::simd
