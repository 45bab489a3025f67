// Deliberately simple reference model of SSVC output-arbitration semantics.
//
// This is the *oracle* half of the differential-testing harness (paper §4.1:
// the authors verified the inhibit circuit against "the true winner based on
// an auxVC value comparison" — this class is that comparison, extended to
// the full three-class semantics). It trades every optimisation the
// production code makes for obviousness:
//
//   * virtual clocks are plain uint64 values updated by one assignment,
//     with no thermometer codes, parity bits or incremental shift logic;
//   * the LRG state is an explicit order vector (front = least recently
//     granted) instead of an N×N beats matrix;
//   * the GL policer is a single compare against now + vtick * allowance.
//
// DifferentialChecker steps one ReferenceOutput per output channel in
// lock-step with core::OutputQosArbiter (and, through the reference's
// levels + order, with circuit::CircuitArbiter) and flags the first cycle
// of divergence. Because the two implementations share no code beyond the
// Vtick quantisation of the configuration, a bug in either side shows up as
// a divergence instead of cancelling out.
//
// PlantedBug deliberately mis-implements one detail of the reference; the
// harness tests use it to prove that an off-by-one anywhere in the
// semantics is caught and shrunk to a short repro. Production checkers
// always run with PlantedBug::None.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/allocation.hpp"
#include "core/gl_tracker.hpp"
#include "core/output_arbiter.hpp"
#include "core/params.hpp"
#include "sim/contracts.hpp"
#include "sim/types.hpp"

namespace ssq::check {

/// Test-only deliberate defects (see header comment).
enum class PlantedBug : std::uint8_t {
  None = 0,
  /// GB grants advance the virtual clock by vtick + 1.
  GbVtickOffByOne,
  /// The LRG winner keeps its priority instead of moving to the back.
  LrgNoMoveToBack,
  /// The GL policer tolerates one extra packet of burst.
  GlAllowanceOffByOne,
  /// Real-time epoch wraps never subtract from the virtual clocks.
  SkipEpochWrap,
  /// Matching-engine runs only (run_scenario swaps the scenario's engine for
  /// arb::MatchKind::Starve): the switch stops granting while requests are
  /// pending — the checker's progress guard must fire.
  EngineStarve,
};

[[nodiscard]] const char* to_string(PlantedBug b) noexcept;

class ReferenceOutput {
 public:
  ReferenceOutput(std::uint32_t radix, const core::SsvcParams& params,
                  const core::OutputAllocation& alloc,
                  core::GlPolicing policing, std::uint32_t gl_allowance,
                  PlantedBug bug = PlantedBug::None);

  /// Epoch-wrap bookkeeping up to `now` (non-decreasing): one wrap per
  /// elapsed epoch, the specification of the simulator's closed-form
  /// catch-up. The first wrap that changes no value ends the loop; the base
  /// then moves past the remaining epochs in one step.
  void advance_to(Cycle now);

  struct Decision {
    InputId winner = kNoPort;
    TrafficClass cls = TrafficClass::BestEffort;
  };

  /// Winner of one arbitration at `now` (call advance_to(now) first), or
  /// kNoPort when only policer-stalled GL requests are present.
  [[nodiscard]] Decision pick(
      std::span<const core::ClassRequest> requests, Cycle now) const;

  /// Commits a grant (call advance_to(now) first).
  void on_grant(InputId input, TrafficClass cls, Cycle now);

  // ---- introspection (state comparison and divergence dumps) ----
  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }
  [[nodiscard]] const core::SsvcParams& params() const noexcept {
    return params_;
  }
  // (Inline: the differential checker reads these for every input of an
  // output whenever either side wrote that output.)
  [[nodiscard]] std::uint64_t value(InputId i) const {
    SSQ_EXPECT(i < radix_);
    return value_[i];
  }
  [[nodiscard]] std::uint32_t level(InputId i) const {
    SSQ_EXPECT(i < radix_);
    return level_of(value_[i]);
  }
  [[nodiscard]] std::uint64_t vtick(InputId i) const {
    SSQ_EXPECT(i < radix_);
    return vtick_[i];
  }
  [[nodiscard]] std::uint64_t gl_clock() const noexcept { return gl_clock_; }
  [[nodiscard]] std::uint64_t gl_vtick() const noexcept { return gl_vtick_; }
  [[nodiscard]] bool gl_eligible(Cycle now) const;
  [[nodiscard]] core::GlPolicing policing() const noexcept {
    return policing_;
  }
  /// Epoch-relative real time at the last advance_to().
  [[nodiscard]] std::uint64_t rt() const noexcept { return rt_; }
  /// LRG order, front = least recently granted (most preferred).
  [[nodiscard]] const std::vector<InputId>& lrg_order() const noexcept {
    return order_;
  }
  /// Rank of input i in the order (0 = most preferred). O(1): pos_ is the
  /// maintained inverse permutation of order_.
  [[nodiscard]] std::uint32_t lrg_rank(InputId i) const {
    SSQ_EXPECT(i < radix_);
    return pos_[i];
  }
  /// Fills `rows` with the beats-matrix rows equivalent to the order
  /// vector, for seeding arb::LrgArbiter::set_matrix in the bit-level
  /// circuit leg. Reuses the caller's buffer: no allocation once it holds
  /// radix() words.
  void lrg_rows(std::vector<std::uint64_t>& rows) const;
  /// Mutation counter, bumped by on_grant and by every epoch wrap of
  /// advance_to that changes a value, never reset: an unchanged version
  /// means unchanged values, LRG order and GL clock
  /// (OutputQosArbiter::state_version's twin).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  /// First requester in LRG order among `bucket` (bit i = input i requests).
  [[nodiscard]] InputId first_in_order(std::uint64_t bucket) const;
  [[nodiscard]] std::uint32_t level_of(std::uint64_t value) const {
    const std::uint64_t lvl = value >> params_.lsb_bits;
    const std::uint32_t top = params_.gb_levels() - 1;
    return lvl < top ? static_cast<std::uint32_t>(lvl) : top;
  }

  std::uint32_t radix_;
  core::SsvcParams params_;
  core::GlPolicing policing_;
  std::uint64_t gl_allowance_;
  PlantedBug bug_;

  std::uint64_t cap_;
  std::vector<std::uint64_t> vtick_;    // per input, cycles per GB grant
  std::vector<bool> reserved_;          // per input, has a GB reservation
  std::vector<std::uint64_t> value_;    // per input, epoch-relative clock
  std::vector<InputId> order_;          // LRG: front = most preferred
  std::vector<std::uint32_t> pos_;      // inverse of order_: pos_[order_[k]]==k
  std::uint64_t gl_vtick_ = 0;          // 0 = GL tracking disabled
  std::uint64_t gl_clock_ = 0;
  Cycle epoch_base_ = 0;
  std::uint64_t rt_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace ssq::check
