#include "core/simd.hpp"

#include <cstdlib>
#include <cstring>

// AVX2 code is compiled only for x86-64 and only unless explicitly disabled;
// the portable tier is the complete implementation on every other target.
#if defined(__x86_64__) && !defined(SSQ_NO_AVX2)
#define SSQ_SIMD_X86 1
#else
#define SSQ_SIMD_X86 0
#endif

namespace ssq::core::simd {

namespace {

// ---- portable tier ----
//
// Straight-line integer loops; GCC auto-vectorizes these to whatever the
// baseline target allows (SSE2 on x86-64), and they are the reference
// semantics the AVX2 tier must reproduce bit for bit.

std::uint64_t covering_mask_portable(const std::uint64_t* rows,
                                     std::uint32_t n,
                                     std::uint64_t mask) noexcept {
  std::uint64_t out = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t bit = 1ULL << i;
    if ((mask & ~bit & ~rows[i]) == 0) out |= bit;
  }
  return out;
}

std::uint32_t first_hit_lane_portable(const std::uint64_t* lanes,
                                      std::uint32_t n,
                                      std::uint64_t occ) noexcept {
  for (std::uint32_t l = 0; l < n; ++l) {
    if ((lanes[l] & occ) != 0) return l;
  }
  return n;
}

#if SSQ_SIMD_X86

// ---- AVX2 tier ----
//
// GCC vector extensions compiled under the target("avx2") attribute, so the
// translation unit itself needs no -mavx2 and non-AVX2 hosts still link the
// portable tier. Four 64-bit lanes per step; tails fall back to the portable
// loops (identical arithmetic).

typedef std::uint64_t v4u64 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) v4u64 load4(const std::uint64_t* p) noexcept {
  v4u64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("avx2"))) std::uint64_t covering_mask_avx2(
    const std::uint64_t* rows, std::uint32_t n, std::uint64_t mask) noexcept {
  std::uint64_t out = 0;
  const v4u64 vmask = {mask, mask, mask, mask};
  v4u64 bits = {1ULL << 0, 1ULL << 1, 1ULL << 2, 1ULL << 3};
  std::uint32_t i = 0;
  for (; i + 4 <= n; i += 4, bits <<= 4) {
    const v4u64 r = load4(rows + i);
    // covers(i) <=> every other requester appears in row i:
    // (mask & ~bit_i & ~row_i) == 0.
    const v4u64 t = vmask & ~bits & ~r;
    const v4u64 z = (t == 0);  // all-ones lane where input i covers
    out |= (z[0] & (1ULL << (i + 0))) | (z[1] & (1ULL << (i + 1))) |
           (z[2] & (1ULL << (i + 2))) | (z[3] & (1ULL << (i + 3)));
  }
  for (; i < n; ++i) {
    const std::uint64_t bit = 1ULL << i;
    if ((mask & ~bit & ~rows[i]) == 0) out |= bit;
  }
  return out;
}

__attribute__((target("avx2"))) std::uint32_t first_hit_lane_avx2(
    const std::uint64_t* lanes, std::uint32_t n, std::uint64_t occ) noexcept {
  const v4u64 vocc = {occ, occ, occ, occ};
  std::uint32_t l = 0;
  for (; l + 4 <= n; l += 4) {
    const v4u64 hit = (load4(lanes + l) & vocc) != 0;
    if (hit[0]) return l;
    if (hit[1]) return l + 1;
    if (hit[2]) return l + 2;
    if (hit[3]) return l + 3;
  }
  for (; l < n; ++l) {
    if ((lanes[l] & occ) != 0) return l;
  }
  return n;
}

SimdTier detect_tier() noexcept {
  if (const char* env = std::getenv("SSQ_SIMD");
      env != nullptr && std::strcmp(env, "portable") == 0) {
    return SimdTier::Portable;
  }
  return __builtin_cpu_supports("avx2") ? SimdTier::Avx2 : SimdTier::Portable;
}

#else  // !SSQ_SIMD_X86

SimdTier detect_tier() noexcept { return SimdTier::Portable; }

#endif  // SSQ_SIMD_X86

}  // namespace

SimdTier active_tier() noexcept {
  static const SimdTier tier = detect_tier();
  return tier;
}

std::uint64_t covering_mask(const std::uint64_t* rows, std::uint32_t n,
                            std::uint64_t mask) noexcept {
#if SSQ_SIMD_X86
  if (active_tier() == SimdTier::Avx2) {
    return covering_mask_avx2(rows, n, mask);
  }
#endif
  return covering_mask_portable(rows, n, mask);
}

std::uint32_t first_hit_lane(const std::uint64_t* lanes, std::uint32_t n,
                             std::uint64_t occ) noexcept {
#if SSQ_SIMD_X86
  if (active_tier() == SimdTier::Avx2) {
    return first_hit_lane_avx2(lanes, n, occ);
  }
#endif
  return first_hit_lane_portable(lanes, n, occ);
}

}  // namespace ssq::core::simd
