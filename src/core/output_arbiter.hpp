// Three-class SSVC output arbitration (paper §3) — the behavioural model of
// what the modified inhibit-based circuit computes in one clock cycle.
//
// Per output channel:
//   * one LRG matrix (shared by all classes, as in the silicon where each
//     crosspoint stores its 63-bit LRG row),
//   * one AuxVc + Vtick per input's GB flow (the crosspoint state),
//   * one GlTracker for the shared GL reservation,
//   * the finite-counter management policy.
//
// A single pick() resolves all three classes exactly as the circuit does:
// any eligible GL request discharges every GB lane (Fig. 3) and GL inputs
// LRG-arbitrate in the GL lane; otherwise GB requests compete by thermometer
// level (smallest auxVC level wins) with LRG breaking ties inside a lane;
// otherwise BE requests LRG-arbitrate. All of this is one arbitration — the
// paper's single-cycle contribution versus the two-cycle scheme of [14].
//
// Equivalence with the bit-level circuit model (src/circuit) is established
// by the §4.1-style verification tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arb/lrg.hpp"
#include "core/allocation.hpp"
#include "core/aux_vc.hpp"
#include "core/gl_tracker.hpp"
#include "core/params.hpp"
#include "sim/types.hpp"

namespace ssq::obs {
class SwitchProbe;
}

namespace ssq::core {

/// One input's request in a three-class arbitration.
struct ClassRequest {
  InputId input = 0;
  TrafficClass cls = TrafficClass::BestEffort;
  std::uint32_t length = 1;
};

class OutputQosArbiter {
 public:
  /// `gl_allowance_packets` parameterises the GL policer (see GlTracker).
  /// `kernel` selects the pick() implementation (ArbKernel); the packed
  /// lane-mask mirrors are maintained either way so the two kernels can be
  /// swapped (and cross-checked) at any time.
  OutputQosArbiter(std::uint32_t radix, const SsvcParams& params,
                   OutputAllocation alloc,
                   GlPolicing policing = GlPolicing::Stall,
                   std::uint32_t gl_allowance_packets = 32,
                   ArbKernel kernel = ArbKernel::Bitsliced);

  /// Advances internal real-time bookkeeping to `now`. Must be called with
  /// non-decreasing `now` before pick()/on_grant() at that cycle; handles
  /// epoch wraps (subtract-real-clock policy). Idempotent within a cycle.
  void advance_to(Cycle now);

  /// Picks the winner of a single-cycle arbitration at `now`, or kNoPort if
  /// no request is serviceable (empty, or GL-only and the GL class is
  /// stalled by the policer). Does not mutate arbitration state.
  [[nodiscard]] InputId pick(std::span<const ClassRequest> requests,
                             Cycle now);

  /// Bit-sliced form of pick(): the three classes arrive as packed request
  /// masks (bit i == input i requests in that class; an input may appear in
  /// at most one mask). Semantically identical to pick() over the same
  /// request set presented in ascending input order. Used directly by the
  /// crossbar's mask path; pick() delegates here under ArbKernel::Bitsliced
  /// and ArbKernel::Simd (the vectorized schedule of the same resolve).
  [[nodiscard]] InputId pick_masked(std::uint64_t gl_mask,
                                    std::uint64_t gb_mask,
                                    std::uint64_t be_mask, Cycle now);

  /// Class the last pick's winner belonged to (after policing, a demoted GL
  /// request reports BestEffort priority but retains its own class — this
  /// returns the *class of the winning request*).
  [[nodiscard]] TrafficClass picked_class() const noexcept {
    return picked_class_;
  }

  /// Commits a grant. `cls` must be the winner's traffic class.
  void on_grant(InputId input, TrafficClass cls, std::uint32_t length,
                Cycle now);

  void reset();

  /// Connects the observability probe; `self` is this arbiter's output id
  /// in trace events. Pass nullptr to detach. The arbiter then reports GL
  /// policer stalls, LRG lane tie-breaks, auxVC saturations, epoch wraps
  /// and halve/reset management events.
  void set_probe(obs::SwitchProbe* probe, OutputId self) noexcept {
    probe_ = probe;
    self_ = self;
  }

  // ---- introspection (tests, benches, circuit cross-checks) ----
  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }
  [[nodiscard]] const SsvcParams& params() const noexcept { return params_; }
  [[nodiscard]] const OutputAllocation& allocation() const noexcept {
    return alloc_;
  }
  // (Inline: the differential checker compares every input's counter state
  // against the reference whenever either side wrote this output.)
  [[nodiscard]] const AuxVc& aux_vc(InputId i) const {
    SSQ_EXPECT(i < radix_);
    return gb_vc_[i];
  }
  [[nodiscard]] std::uint32_t gb_level(InputId i) const {
    SSQ_EXPECT(i < radix_);
    return gb_vc_[i].level();
  }
  [[nodiscard]] const arb::LrgArbiter& lrg() const noexcept { return lrg_; }
  /// Mutable LRG matrix, for the fault injector and tests; counts as a write
  /// (see state_version()).
  [[nodiscard]] arb::LrgArbiter& lrg() noexcept {
    ++version_;
    return lrg_;
  }
  [[nodiscard]] const GlTracker& gl_tracker() const noexcept { return gl_; }
  /// Epoch-relative real time at the last advance_to().
  [[nodiscard]] std::uint64_t epoch_rt() const noexcept { return rt_; }
  /// Cycle the current epoch began (a multiple of params().epoch_cycles();
  /// moves only in the versioned epoch-wrap loop of advance_to, and reset).
  [[nodiscard]] Cycle epoch_base() const noexcept { return epoch_base_; }
  [[nodiscard]] ArbKernel kernel() const noexcept { return kernel_; }
  /// Mutation counter over every piece of state the differential checker
  /// compares: auxVC registers and codes, the quarantine remap, the LRG
  /// matrix and the GL clock. Every path that can write that state bumps it
  /// (the epoch-wrap loop of advance_to, on_grant, reset, scrub,
  /// quarantine_lane, and handing out aux_vc_mut, gl_tracker_mut or the
  /// mutable lrg()); nothing resets it. So an unchanged version means
  /// unchanged state. A mutable reference counts once, when it is taken:
  /// write through it before the next compare, never hold it across one.
  [[nodiscard]] std::uint64_t state_version() const noexcept {
    return version_;
  }

  // ---- packed lane-mask mirrors (bit-sliced kernel state) ----
  //
  // lane_mask(m) mirrors, incrementally, the set of inputs whose *raw*
  // sensed thermometer level (AuxVc::arb_level(), before the quarantine
  // remap) is m. Inputs listed in dirty_inputs() may be stale — a fault
  // touched them, or their corruption makes the incremental transforms
  // diverge from the stored vector — and are re-read from the counters at
  // the top of every masked pick. Invariant (checked by the kernel property
  // tests): after resync_lane_masks(), bit i of lane_mask(m) is set iff
  // aux_vc(i).arb_level() == m, for every input i.
  [[nodiscard]] std::uint64_t lane_mask(std::uint32_t lane) const {
    SSQ_EXPECT(lane < params_.gb_levels());
    return lane_mask_[lane];
  }
  [[nodiscard]] std::uint64_t dirty_inputs() const noexcept { return dirty_; }
  /// Re-reads every dirty input's lane slot from its counter; corrupted
  /// inputs stay marked dirty (their stored vector no longer follows the
  /// incremental transforms until the scrubber repairs it).
  void resync_lane_masks();

  // ---- fault injection / recovery (driven by src/fault) ----

  /// Mutable crosspoint state, for the fault injector and scrubber only.
  /// Each call counts as a write (see state_version()).
  [[nodiscard]] AuxVc& aux_vc_mut(InputId i);
  [[nodiscard]] GlTracker& gl_tracker_mut() noexcept {
    ++version_;
    return gl_;
  }

  /// GB level arbitration actually senses for input `i`: the (possibly
  /// corrupted) thermometer read, then the quarantine remap. Equals
  /// gb_level(i) while the state is clean and no lane is quarantined.
  [[nodiscard]] std::uint32_t sensed_gb_level(InputId i) const {
    SSQ_EXPECT(i < radix_);
    const std::uint32_t lvl = gb_vc_[i].arb_level();
    return lane_map_.empty() ? lvl : lane_map_[lvl];
  }

  /// Takes GB lane `lane` out of service: its occupants merge into the
  /// nearest healthy lane below, so arbitration keeps a total (if coarser)
  /// priority order and LRG absorbs the lost resolution. Persists across
  /// reset() — a quarantine models physically damaged bitlines. Idempotent.
  void quarantine_lane(std::uint32_t lane);
  /// Bitmask of quarantined GB lanes (bit l == lane l out of service).
  [[nodiscard]] std::uint64_t quarantined_lanes() const noexcept {
    return quarantined_;
  }

  /// One scrub pass at `now`: checks and repairs every auxVC
  /// register/thermometer pair (parity + level invariant), the LRG matrix's
  /// total order, and the GL clock's policing bound. Returns the number of
  /// repairs made; each one is reported through the probe.
  std::uint32_t scrub(Cycle now);

 private:
  /// Applies the halve/reset global management event.
  void on_saturation(Cycle now);

  [[nodiscard]] InputId lrg_pick(std::span<const ClassRequest> reqs) const;
  /// Mask-space LRG resolution: first input (ascending) whose row covers
  /// every other requester; degrades like lrg_pick under a corrupt matrix.
  [[nodiscard]] InputId lrg_winner(std::uint64_t mask) const;
  /// Moves input i's lane-mask bit to its current raw sensed level.
  void resync_input(InputId i);

  std::uint32_t radix_;
  SsvcParams params_;
  OutputAllocation alloc_;
  arb::LrgArbiter lrg_;
  std::vector<AuxVc> gb_vc_;  // one per input (crosspoint column state)
  GlTracker gl_;
  Cycle epoch_base_ = 0;
  std::uint64_t rt_ = 0;  // now - epoch_base_
  Cycle last_now_ = 0;
  TrafficClass picked_class_ = TrafficClass::BestEffort;
  std::uint64_t quarantined_ = 0;        // out-of-service GB lanes
  std::vector<std::uint32_t> lane_map_;  // level remap; empty = identity
  ArbKernel kernel_ = ArbKernel::Bitsliced;
  std::vector<std::uint64_t> lane_mask_;  // per raw lane: occupant inputs
  std::uint64_t dirty_ = 0;       // inputs whose lane slot may be stale
  std::uint64_t gb_capable_ = 0;  // inputs with a GB reservation
  std::vector<ClassRequest> bucket_;     // pick() scratch; reserved to radix
  std::uint64_t version_ = 0;  // state_version(); monotone, never reset
  obs::SwitchProbe* probe_ = nullptr;  // null = observability off
  OutputId self_ = kNoPort;
};

}  // namespace ssq::core
