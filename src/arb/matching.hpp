// Pluggable crossbar matching engines.
//
// The per-output Arbiter interface (arbiter.hpp) resolves ONE output at a
// time; a MatchingEngine computes a whole input/output matching per cycle
// from the switch-wide request state: the eligibility matrix in, a partial
// permutation out, under an iteration budget. This is the natural frame for
// the iterative input-queued schedulers of the literature — iSLIP
// (round-robin grant/accept pointers that desynchronise under contention),
// QPS-r (queue-proportional sampling, r rounds), and SW-QPS (sliding-window
// batch matching that keeps refining the matchings of the next T cycles).
// The crossbar (SwitchConfig::engine) is their one driver outside tests; it
// builds the view each cycle and commits the matching returned.
//
// Contract highlights:
//  * match() fills `match_in[o]` with the matched input for output o (or
//    kNoPort), forming a partial permutation: no input appears twice, and
//    every pair (i, o) satisfies `eligible[i] bit o` and `backlog(i,o) > 0`.
//  * match() is deterministic: sampling engines draw from an internal
//    seeded Rng, and a call with an all-empty view rolls no RNG and leaves
//    no observable trace (SW-QPS retires drained window entries first), so
//    idle-cycle fast-forward stays exact.
//  * The return value is the number of matching iterations actually used —
//    the convergence metric of CrossbarSwitch::engine_stats().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace ssq::arb {

/// Matching-engine selector. None = no engine: single-request allocation,
/// each idle input asserts one request and every requested output runs its
/// own SSVC or baseline arbiter.
enum class MatchKind : std::uint8_t {
  None = 0,
  /// iSLIP [McKeown '99]: per-output round-robin grant pointers, per-input
  /// round-robin accept pointers, updated only on first-iteration accepts.
  Islip,
  /// QPS-r: each backlogged input samples one output with probability
  /// proportional to VOQ length; outputs accept the longest-VOQ proposal;
  /// r proposing rounds per cycle.
  Qps,
  /// SW-QPS: one QPS proposing round per cycle into a sliding window of T
  /// future cycles; each frame's matching only ever grows while it waits.
  SwQps,
  /// Single-request emulation of the paper's switch: one rotating request
  /// per input, least-recently-granted winner per output. The engine-path
  /// twin of single-request allocation (no per-output QoS state: no GL
  /// policing, no GB virtual clocks), drawn like the other engines.
  Ssvc,
  /// Test-only: never matches anything. Planted-bug teeth for the
  /// differential checker's work-conservation (starvation) guard.
  Starve,
};

/// Stable lowercase name ("islip", "qps", "swqps", "ssvc", ...).
[[nodiscard]] std::string_view match_kind_name(MatchKind kind) noexcept;

/// Parses a kind from its name; throws ssq::ConfigError naming the
/// offending token on unknown names.
[[nodiscard]] MatchKind parse_match_kind(std::string_view name);

/// One cycle's request state, handed to match(). Spans point into the
/// caller's scratch arena and die when match() returns.
struct MatchView {
  std::uint32_t radix = 0;
  /// Per input: bitmask of outputs this input can be matched to THIS cycle
  /// (servable head, input bus free, output channel idle, link alive).
  std::span<const std::uint64_t> eligible;
  /// Per input: bitmask of outputs with a servable head and a live link,
  /// regardless of channel business — a superset of `eligible`. SW-QPS
  /// proposes future-frame pairs from here.
  std::span<const std::uint64_t> candidates;
  /// Row-major radix x radix backlog matrix in flits; positive exactly on
  /// the `candidates` bits. QPS sampling weight, and SW-QPS's signal for
  /// retiring drained window entries.
  std::span<const std::uint32_t> voq;

  [[nodiscard]] std::uint32_t backlog(InputId i, OutputId o) const noexcept {
    return voq[static_cast<std::size_t>(i) * radix + o];
  }
};

class MatchingEngine {
 public:
  explicit MatchingEngine(std::uint32_t radix) : radix_(radix) {
    SSQ_EXPECT(radix >= 1 && radix <= 64);
  }
  virtual ~MatchingEngine() = default;
  MatchingEngine(const MatchingEngine&) = delete;
  MatchingEngine& operator=(const MatchingEngine&) = delete;

  /// Computes this cycle's matching into `match_in` (size radix, entry o =
  /// matched input or kNoPort). Returns iterations used (>= 1).
  virtual std::uint32_t match(const MatchView& view,
                              std::span<InputId> match_in) = 0;

  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }

 protected:
  /// First set bit of `mask` at or cyclically after `from` (mask != 0).
  [[nodiscard]] static std::uint32_t rotate_pick(std::uint64_t mask,
                                                 std::uint32_t from) noexcept;

 private:
  std::uint32_t radix_;
};

class IslipEngine final : public MatchingEngine {
 public:
  IslipEngine(std::uint32_t radix, std::uint32_t iterations);
  std::uint32_t match(const MatchView& view,
                      std::span<InputId> match_in) override;
  [[nodiscard]] std::uint32_t grant_pointer(OutputId o) const {
    return grant_ptr_[o];
  }

 private:
  std::uint32_t iterations_;
  std::vector<std::uint32_t> grant_ptr_;   // per output
  std::vector<std::uint32_t> accept_ptr_;  // per input
  std::vector<std::uint64_t> requests_;    // scratch: per output, input bits
  std::vector<std::uint64_t> offered_;     // scratch: per input, output bits
};

class QpsEngine final : public MatchingEngine {
 public:
  QpsEngine(std::uint32_t radix, std::uint32_t iterations, std::uint64_t seed);
  std::uint32_t match(const MatchView& view,
                      std::span<InputId> match_in) override;

 private:
  std::uint32_t iterations_;
  Rng rng_;
  std::vector<InputId> proposer_;        // scratch: per output
  std::vector<std::uint32_t> prop_len_;  // scratch: per output
};

class SwQpsEngine final : public MatchingEngine {
 public:
  /// `window` = T, the number of future cycles being refined (>= 1).
  SwQpsEngine(std::uint32_t radix, std::uint32_t window, std::uint64_t seed);
  std::uint32_t match(const MatchView& view,
                      std::span<InputId> match_in) override;
  [[nodiscard]] std::uint32_t window() const noexcept {
    return static_cast<std::uint32_t>(frames_.size());
  }
  /// Matched pairs currently held in frame `k` (0 departs next).
  [[nodiscard]] std::uint32_t frame_size(std::uint32_t k) const;

 private:
  struct Frame {
    std::vector<InputId> match_in;  // per output
    std::uint64_t in_used = 0;
    std::uint64_t out_used = 0;
  };
  void clear_frame(Frame& f);

  Rng rng_;
  std::vector<Frame> frames_;  // frames_[0] departs at the current cycle
};

class SsvcSingleRequestEngine final : public MatchingEngine {
 public:
  explicit SsvcSingleRequestEngine(std::uint32_t radix);
  std::uint32_t match(const MatchView& view,
                      std::span<InputId> match_in) override;

 private:
  std::vector<std::uint32_t> request_ptr_;  // per input, rotating over outputs
  std::vector<std::uint64_t> last_grant_;   // per (o, i): LRG recency stamp
  std::vector<std::uint64_t> requests_;     // scratch: per output, input bits
  std::uint64_t grant_seq_ = 0;
};

class StarvingEngine final : public MatchingEngine {
 public:
  explicit StarvingEngine(std::uint32_t radix) : MatchingEngine(radix) {}
  std::uint32_t match(const MatchView&, std::span<InputId> match_in) override {
    for (auto& m : match_in) m = kNoPort;
    return 1;
  }
};

/// Constructs an engine. `iterations` is the round budget (iSLIP/QPS-r) or
/// the window T (SW-QPS); `seed` feeds the sampling engines' Rng streams.
/// Throws ssq::ConfigError for MatchKind::None.
[[nodiscard]] std::unique_ptr<MatchingEngine> make_engine(
    MatchKind kind, std::uint32_t radix, std::uint32_t iterations,
    std::uint64_t seed);

}  // namespace ssq::arb
