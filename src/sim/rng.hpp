// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic element of an experiment (injection processes, random
// allocation vectors, tie-shuffles in tests) draws from an Rng seeded from a
// single experiment-level seed, so every table row printed by the bench
// harness is exactly reproducible.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded via splitmix64 —
// small, fast, and statistically strong for simulation purposes. It satisfies
// the C++ UniformRandomBitGenerator requirements so it can be used with
// <random> distributions, but the common draws (uniform double, Bernoulli,
// bounded int, geometric) are provided directly with stable semantics.
#pragma once

#include <cstdint>
#include <limits>

namespace ssq {

/// splitmix64 — used to expand a 64-bit seed into generator state, and as a
/// convenient stateless hash for deriving per-flow sub-seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state by running splitmix64 on `seed`. Any seed is valid.
  explicit constexpr Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p (p clamped to [0,1]).
  constexpr bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection-free-in-the-common-case method.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  constexpr std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Geometric draw: number of failures before the first success of a
  /// Bernoulli(p) process; mean (1-p)/p. Precondition: 0 < p <= 1.
  constexpr std::uint64_t geometric(double p) noexcept {
    if (p >= 1.0) return 0;
    std::uint64_t n = 0;
    while (!bernoulli(p)) ++n;
    return n;
  }

  /// Derives an independent child generator (stable: depends only on the
  /// parent's current state and `stream`).
  constexpr Rng fork(std::uint64_t stream) noexcept {
    std::uint64_t s = (*this)() ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    return Rng{s};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace ssq
