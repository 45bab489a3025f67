// Switch configuration.
#pragma once

#include <cstdint>

#include "arb/factory.hpp"
#include "arb/matching.hpp"
#include "core/gl_tracker.hpp"
#include "core/params.hpp"
#include "sim/contracts.hpp"
#include "sim/error.hpp"

namespace ssq::sw {

/// Input-port buffering, in flits (paper Table 1 layout: one BE buffer, one
/// GB buffer per output — the crosspoint queue — and one GL buffer).
struct BufferConfig {
  std::uint32_t be_flits = 16;
  std::uint32_t gb_flits_per_output = 16;
  std::uint32_t gl_flits = 16;

  void validate() const {
    detail::config_check(be_flits >= 1, "buffer be_flits must be >= 1");
    detail::config_check(gb_flits_per_output >= 1,
                         "buffer gb_flits_per_output must be >= 1");
    detail::config_check(gl_flits >= 1, "buffer gl_flits must be >= 1");
  }
};

/// Globally-Synchronized-Frames-style source regulation (Lee et al.,
/// ISCA'08 — §2.2: "a frame-based approach that controls the number of
/// packets injected into the network at the source. It requires a global
/// barrier network across all nodes, which adds overhead and can be slow").
///
/// When enabled, every reserved (GB) flow may admit at most
/// ceil(reserved_rate * frame_cycles / packet_len) packets per frame, and
/// injection pauses for `barrier_cycles` at every frame boundary (the
/// global barrier cost). Combine with ArbitrationMode::Baseline + Lrg to
/// model GSF over a QoS-unaware network.
struct GsfConfig {
  bool enabled = false;
  Cycle frame_cycles = 256;
  Cycle barrier_cycles = 16;

  void validate() const {
    if (!enabled) return;
    detail::config_check(frame_cycles >= 2, "gsf frame_cycles must be >= 2");
    detail::config_check(barrier_cycles < frame_cycles,
                         "gsf barrier_cycles must be < frame_cycles");
  }
};

/// How output arbitration is performed.
enum class ArbitrationMode : std::uint8_t {
  /// Full three-class SSVC QoS (the paper's scheme).
  SsvcQos = 0,
  /// Class-blind single arbiter (Fig. 4(a) LRG baseline, or any arb::Kind
  /// baseline such as the exact Virtual Clock of Fig. 5).
  Baseline = 1,
};

/// How inputs present requests to the outputs each cycle.
enum class AllocationMode : std::uint8_t {
  /// Each idle input asserts exactly ONE request (the Swizzle Switch model:
  /// one input bus, requests raised by the port logic). Simple, but an
  /// input whose chosen output loses arbitration idles the cycle even if
  /// another of its queues could have been served.
  SingleRequest = 0,
  /// iSLIP-style iterative matching (extension): inputs expose every ready
  /// head; unmatched outputs run their (QoS or baseline) arbitration as the
  /// grant step; inputs accept one grant (class priority, then a rotating
  /// pointer); unmatched ports retry for `match_iterations` rounds. Improves
  /// utilisation under multi-destination traffic at the cost of a more
  /// complex allocator than the paper's single-cycle story.
  IterativeMatching = 1,
};

struct SwitchConfig {
  std::uint32_t radix = 8;
  core::SsvcParams ssvc{};
  BufferConfig buffers{};

  /// Retired, read by nothing; ROADMAP item 9 deletes it with core.kernel.*
  core::ArbKernel kernel = core::ArbKernel::Scalar;

  /// Idle-cycle fast-forward: when no packet exists anywhere in the switch,
  /// run() skips ahead — jumping the clock to the minimum event horizon
  /// over every per-cycle consumer (injector next creation cycles, with
  /// Bernoulli/OnOff streams pre-rolled, the fault plan's outage/stuck
  /// schedule, the pre-rolled bitflip stream, the scrubber's next pass —
  /// see switch/event_horizon.hpp). Exact in every mode: an idle cycle
  /// touches no arbiter, queue, stats or probe state; SSVC epoch wraps
  /// defer to the next request's advance_to(); a baseline arbiter changes
  /// only in pick()/on_grant() and reads time only from the `now` it is
  /// handed; GSF frame state catches up retroactively; window consumers
  /// coalesce via clock_jump. Faulted, scrubbed, monitored, GSF and
  /// baseline runs all stay byte-identical to their stepped equivalents.
  bool fast_forward = true;

  ArbitrationMode mode = ArbitrationMode::SsvcQos;
  /// Baseline arbiter kind when mode == Baseline. Rate-parameterised kinds
  /// (WRR/DWRR/WFQ/VirtualClock) receive each output's GB reservations.
  arb::Kind baseline = arb::Kind::Lrg;

  core::GlPolicing gl_policing = core::GlPolicing::Stall;
  std::uint32_t gl_allowance_packets = 32;

  /// Optional GSF-style source regulation (see GsfConfig).
  GsfConfig gsf{};

  /// Preemptive Virtual Clock switch support (meaningful with
  /// mode == Baseline and baseline == arb::Kind::Pvc): a waiting packet
  /// whose PVC level beats the in-flight packet's grant-time level by more
  /// than `preempt_margin` levels aborts the transfer; the victim retries
  /// from the source buffer and the moved flits count as waste.
  struct PvcConfig {
    bool preemption = false;
    std::uint32_t preempt_margin = 2;
  };
  PvcConfig pvc{};

  /// Input-request presentation policy (see AllocationMode).
  AllocationMode allocation = AllocationMode::SingleRequest;
  /// Matching rounds when allocation == IterativeMatching; doubles as the
  /// window size T for the SW-QPS engine.
  std::uint32_t match_iterations = 2;

  /// Matching engine (iSLIP / QPS-r / SW-QPS / ...) replacing the per-output
  /// arbiter grant step under IterativeMatching allocation. None (default)
  /// keeps the classic path: SSVC/baseline arbiters arbitrate each output.
  /// An engine ignores QoS state entirely — class priority survives only in
  /// head selection (GL > GB > BE per input), so engine runs are checked
  /// invariants-only by the differential harness. Requires SsvcQos mode,
  /// IterativeMatching allocation and no packet chaining (chaining charges
  /// the per-output arbiters an engine bypasses).
  arb::MatchKind engine = arb::MatchKind::None;

  /// Cycles consumed by output arbitration before the first flit moves.
  /// 1 for the Swizzle Switch / SSVC (the paper's single-cycle headline);
  /// 2 models the earlier 4-level QoS design [14] that "required two
  /// arbitration cycles" — the saturated throughput ceiling becomes
  /// L/(L + arbitration_cycles).
  std::uint32_t arbitration_cycles = 1;

  /// Packet Chaining [Michelogiannakis, CAL'11]: when the granted input's
  /// next packet in the same queue heads to the same output, it is chained
  /// onto the channel without a fresh arbitration cycle — the mitigation the
  /// paper cites for the arbitration-cycle throughput loss.
  bool packet_chaining = false;

  /// If true, packet latency is measured from source-queue creation instead
  /// of from input-buffer entry (adds source queueing delay).
  bool latency_from_creation = false;

  std::uint64_t seed = 0x5eed;

  /// Throws ssq::ConfigError on bad user configuration (CLI flags).
  void validate() const {
    detail::config_check(radix >= 2 && radix <= 64,
                         "radix out of range [2,64]");
    detail::config_check(arbitration_cycles >= 1 && arbitration_cycles <= 4,
                         "arbitration_cycles out of range [1,4]");
    detail::config_check(match_iterations >= 1 && match_iterations <= 8,
                         "match_iterations out of range [1,8]");
    if (engine != arb::MatchKind::None) {
      detail::config_check(allocation == AllocationMode::IterativeMatching,
                           "a matching engine requires IterativeMatching "
                           "allocation");
      detail::config_check(mode == ArbitrationMode::SsvcQos,
                           "a matching engine requires SsvcQos mode");
      detail::config_check(!packet_chaining,
                           "packet chaining cannot be combined with a "
                           "matching engine (chaining charges the per-output "
                           "arbiters an engine bypasses)");
    }
    detail::config_check(!packet_chaining || mode == ArbitrationMode::SsvcQos,
                         "packet chaining requires the QoS arbiters (a "
                         "baseline arbiter cannot be charged without a pick)");
    detail::config_check(!pvc.preemption ||
                             (mode == ArbitrationMode::Baseline &&
                              baseline == arb::Kind::Pvc),
                         "PVC preemption requires the PVC baseline arbiter");
    ssvc.validate();
    buffers.validate();
    gsf.validate();
  }
};

}  // namespace ssq::sw
