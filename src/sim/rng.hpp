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
//
// Per-cycle streams (traffic sources, the bitflip stream) prepare their
// Bernoulli trials once (BernoulliTrial) and may roll them ahead of the
// clock: first_success() is the one loop that does, and RolledStream keeps
// what a stream has already decided.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/contracts.hpp"
#include "sim/types.hpp"

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

  /// Bernoulli trial: true with probability p (p clamped to [0,1]). The
  /// specification of BernoulliTrial, which per-cycle streams use.
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

  /// Equal generators draw equal streams.
  friend constexpr bool operator==(const Rng&, const Rng&) = default;

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

/// The one roll-ahead loop: runs `trial()` once per cycle of [from, limit),
/// in cycle order, and returns the first cycle whose trial succeeds, or
/// `limit` when none does (no trial runs when from >= limit).
template <class Trial>
constexpr Cycle first_success(Cycle from, Cycle limit, Trial&& trial) {
  for (Cycle c = from; c < limit; ++c) {
    if (trial()) return c;
  }
  return limit;
}

/// A Bernoulli(p) trial prepared once from p: it answers and draws exactly
/// as Rng::bernoulli(p) does, with one integer compare per trial. uniform()
/// is (x >> 11) * 2^-53, so uniform() < p holds iff the integer x >> 11 is
/// below ceil(p * 2^53). p <= 0 and p >= 1 decide without drawing.
class BernoulliTrial {
 public:
  /// Precondition: p is not NaN.
  explicit BernoulliTrial(double p = 0.0) {
    SSQ_EXPECT(!std::isnan(p));
    draws_ = p > 0.0 && p < 1.0;
    if (draws_) {
      threshold_ = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
    } else {
      threshold_ = p >= 1.0 ? 1 : 0;
    }
  }

  /// One trial. (Inline: on the per-cycle stream hot path.)
  bool operator()(Rng& rng) const noexcept {
    return draws_ ? (rng() >> 11) < threshold_ : threshold_ != 0;
  }

  /// The first cycle of [from, limit) whose trial succeeds, or `limit`,
  /// running one trial per cycle in order; the outcome and draws equal
  /// trial-by-trial stepping.
  Cycle first_success(Rng& rng, Cycle from, Cycle limit) const noexcept {
    if (!draws_) return threshold_ != 0 && from < limit ? from : limit;
    // A local: the generator's stores could alias the member.
    const std::uint64_t threshold = threshold_;
    return ssq::first_success(
        from, limit, [&rng, threshold] { return (rng() >> 11) < threshold; });
  }

 private:
  bool draws_ = false;
  // Drawing: success iff the draw's top 53 bits are below it. Not drawing:
  // nonzero iff the trial always succeeds.
  std::uint64_t threshold_ = 0;
};

/// What a per-cycle trial stream rolled ahead of the clock has decided:
/// every cycle below rolled() has had its trials drawn, and at most one
/// rolled cycle that succeeded is pending until step() replays it. The
/// stream is private, so rolling ahead draws the same values in the same
/// order as stepping cycle by cycle. Query cycles never decrease.
class RolledStream {
 public:
  /// Cycle `now`'s outcome: a rolled cycle replays without drawing, any
  /// other cycle runs `trial()` once.
  template <class Trial>
  bool step(Cycle now, Trial&& trial) {
    if (now < rolled_) {
      if (pending_ != now) return false;
      pending_ = kNoCycle;
      return true;
    }
    rolled_ = now + 1;
    return trial();
  }

  /// Rolls on from max(from, rolled()) up to `limit` with `scan(from,
  /// limit)`, which returns the first succeeding cycle or `limit` (as
  /// first_success() does). Returns the pending cycle, which a succeeding
  /// roll sets; kNoCycle if none, with every cycle below `limit` rolled.
  template <class Scan>
  Cycle roll(Cycle from, Cycle limit, Scan&& scan) {
    if (pending_ != kNoCycle) return pending_;
    from = std::max(from, rolled_);
    const Cycle c = scan(from, limit);
    if (c < limit) {
      pending_ = c;
      rolled_ = c + 1;
      return c;
    }
    rolled_ = std::max(from, limit);
    return kNoCycle;
  }

  [[nodiscard]] Cycle rolled() const noexcept { return rolled_; }

 private:
  // Invariant: pending_ == kNoCycle or pending_ < rolled_.
  Cycle rolled_ = 0;
  Cycle pending_ = kNoCycle;
};

}  // namespace ssq
