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
// A single pick_masked() resolves all three classes exactly as the circuit
// does: any eligible GL request discharges every GB lane (Fig. 3) and GL
// inputs LRG-arbitrate in the GL lane; otherwise GB requests compete by
// thermometer level (smallest auxVC level wins) with LRG breaking ties
// inside a lane; otherwise BE requests LRG-arbitrate. All of this is one
// arbitration — the paper's single-cycle contribution versus the two-cycle
// scheme of [14].
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

/// The request format of every SSVC arbitration: one packed mask per class
/// (bit i == input i requests in that class; an input is in at most one).
struct ClassMasks {
  std::uint64_t gl = 0;
  std::uint64_t gb = 0;
  std::uint64_t be = 0;

  void add(InputId i, TrafficClass cls) noexcept {
    const std::uint64_t bit = 1ULL << i;
    switch (cls) {
      case TrafficClass::GuaranteedLatency: gl |= bit; break;
      case TrafficClass::GuaranteedBandwidth: gb |= bit; break;
      case TrafficClass::BestEffort: be |= bit; break;
    }
  }
  void remove(InputId i) noexcept {
    const std::uint64_t keep = ~(1ULL << i);
    gl &= keep;
    gb &= keep;
    be &= keep;
  }
  [[nodiscard]] std::uint64_t any() const noexcept { return gl | gb | be; }
  /// The class input i requests in (BE when its bit is in no mask).
  [[nodiscard]] TrafficClass class_of(InputId i) const noexcept {
    if (((gl >> i) & 1ULL) != 0) return TrafficClass::GuaranteedLatency;
    if (((gb >> i) & 1ULL) != 0) return TrafficClass::GuaranteedBandwidth;
    return TrafficClass::BestEffort;
  }
};

class OutputQosArbiter {
 public:
  /// `gl_allowance_packets` parameterises the GL policer (see GlTracker).
  OutputQosArbiter(std::uint32_t radix, const SsvcParams& params,
                   OutputAllocation alloc,
                   GlPolicing policing = GlPolicing::Stall,
                   std::uint32_t gl_allowance_packets = 32);

  /// Advances internal real-time bookkeeping to `now`. Must be called with
  /// non-decreasing `now` before pick()/on_grant() at that cycle; handles
  /// epoch wraps (subtract-real-clock policy). Idempotent within a cycle.
  void advance_to(Cycle now);

  /// Request-list adapter over pick_masked(): packs `requests` (unique
  /// inputs, any order) into the three class masks. For tests, benches and
  /// the two-stage fabric; the crossbar builds the masks itself.
  [[nodiscard]] InputId pick(std::span<const ClassRequest> requests,
                             Cycle now);

  /// Picks the winner of a single-cycle arbitration at `now`, or kNoPort if
  /// no request is serviceable (none, or GL-only and the GL class is
  /// stalled by the policer). The three classes arrive as packed request
  /// masks (bit i == input i requests in that class; an input may appear in
  /// at most one mask). The GB stage reads every GB requester's sensed
  /// level and keeps those at the minimum; every lane tie goes to
  /// arb::LrgArbiter::winner(). Does not mutate arbitration state.
  [[nodiscard]] InputId pick_masked(const ClassMasks& masks, Cycle now);

  /// Class the last pick's winner belonged to (after policing, a demoted GL
  /// request reports BestEffort priority but retains its own class — this
  /// returns the *class of the winning request*).
  [[nodiscard]] TrafficClass picked_class() const noexcept {
    return picked_class_;
  }

  /// Commits a grant. `cls` must be the winner's traffic class.
  void on_grant(InputId input, TrafficClass cls, std::uint32_t length,
                Cycle now);

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
  /// moves only in the epoch wraps of advance_to). A wrap that
  /// finds every counter a clean zero moves it without a version bump: the
  /// base is not per-input state, and the checker compares the `rt` it
  /// implies on every epoch sweep, outside the version gate.
  [[nodiscard]] Cycle epoch_base() const noexcept { return epoch_base_; }
  /// Mutation counter over every piece of state the differential checker
  /// compares: auxVC registers and codes, the quarantine remap, the LRG
  /// matrix and the GL clock. Every path that can write that state bumps it
  /// (an epoch wrap of advance_to that changes a counter, on_grant, scrub,
  /// quarantine_lane, and handing out aux_vc_mut, gl_tracker_mut or the
  /// mutable lrg()); nothing resets it. So an unchanged version means
  /// unchanged state. A mutable reference counts once, when it is taken:
  /// write through it before the next compare, never hold it across one.
  [[nodiscard]] std::uint64_t state_version() const noexcept {
    return version_;
  }

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
  /// priority order and LRG absorbs the lost resolution. It is permanent —
  /// a quarantine models physically damaged bitlines. Idempotent.
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
  std::uint64_t gb_capable_ = 0;  // inputs with a GB reservation
  // Inputs whose counter may not be a clean zero: set by a GB grant and by
  // aux_vc_mut, cleared by advance_to once a wrap leaves the counter a
  // clean zero. Halve and reset keep a clean zero clean, and a scrub
  // repairs only a corrupted counter, which aux_vc_mut already marked.
  std::uint64_t live_ = 0;
  std::uint64_t version_ = 0;  // state_version(); monotone, never reset
  obs::SwitchProbe* probe_ = nullptr;  // null = observability off
  OutputId self_ = kNoPort;
};

}  // namespace ssq::core
