// The cycle-accurate single-crossbar Swizzle Switch model.
//
// Machine model (one cycle):
//   1. inject  — flow injectors create packets into unbounded source queues;
//                each input port admits at most one packet per cycle into
//                its (finite) class buffers.
//   2. transfer — every active transmission moves one flit across its output
//                channel; buffer space drains; completing packets are
//                recorded.
//   3. arbitrate — each idle input asserts at most ONE request (its bus
//                carries one flit/cycle): GL head first, then GB heads by a
//                rotating output pointer, then BE, restricted to idle output
//                channels. Each idle output runs one single-cycle
//                arbitration (three-class SSVC, or a class-blind baseline
//                arbiter) and the winner's packet seizes the channel for
//                1 arbitration cycle + `length` transfer cycles.
//
// The 1-cycle arbitration occupancy is intrinsic: the Swizzle Switch
// repurposes the output data bus for arbitration, so a channel cannot
// arbitrate and transfer simultaneously — this is what caps Fig. 4 at
// 8/(8+1) ≈ 0.89 flits/cycle for 8-flit packets, and what the optional
// Packet Chaining extension recovers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arb/arbiter.hpp"
#include "core/output_arbiter.hpp"
#include "obs/probe.hpp"
#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"
#include "stats/latency.hpp"
#include "stats/throughput.hpp"
#include "switch/config.hpp"
#include "switch/event_horizon.hpp"
#include "switch/input_port.hpp"
#include "switch/packet.hpp"
#include "switch/step_scratch.hpp"
#include "traffic/injector.hpp"
#include "traffic/workload.hpp"

namespace ssq::fault {
class FaultInjector;
class StateScrubber;
}

namespace ssq::sw {

class CrossbarSwitch {
 public:
  CrossbarSwitch(const SwitchConfig& config, traffic::Workload workload);

  /// Advances one cycle.
  void step();

  /// The cycle the last step() ran: its requests, grants and per-flow
  /// packet counts. A fast_forward() moves the clock, not the record.
  [[nodiscard]] CycleRecord last_cycle() const noexcept;

  /// Advances `cycles` cycles. When fast_forward_eligible() and the switch
  /// is quiescent, idle stretches are skipped (exactly — see
  /// SwitchConfig::fast_forward) instead of stepped.
  void run(Cycle cycles);

  /// True when the configuration permits idle-cycle fast-forward: SSVC mode
  /// with config.fast_forward set. Attachments no longer disqualify — fault
  /// injectors, scrubbers, probes/monitors and GSF regulation all
  /// participate through the event-horizon protocol (event_horizon.hpp):
  /// schedule-driven consumers clamp the jump to their next event, RNG
  /// streams are pre-rolled, and window consumers catch up retroactively.
  /// Only the baseline arbiters (per-cycle on_idle state) remain stepped.
  /// Cached at construction: config is immutable, so this is one flag read.
  [[nodiscard]] bool fast_forward_eligible() const noexcept {
    return ff_eligible_;
  }

  /// True when no packet exists anywhere (source queues, input buffers, or
  /// in flight) and no freshly-created packet awaits admission.
  [[nodiscard]] bool quiescent() const noexcept {
    return live_packets_ == 0 && !create_pending_;
  }

  /// Fast-forwards from now() toward `end` (absolute cycle) while the
  /// switch stays quiescent. Requires fast_forward_eligible(). Folds every
  /// attached consumer's horizon (EventHorizon): injector next-active
  /// cycles, the fault plan's outage/stuck schedule, the pre-rolled bitflip
  /// stream, and the scrubber's next pass. The clock jumps over stretches
  /// where nothing is due; cycles where only an injector must roll its RNG
  /// run through the creation-only fast path; cycles where a fault/scrub
  /// consumer is due return to the caller for a full step(). Returns with
  /// either now() == end, no progress possible without a full step, or
  /// packets created and pending admission (the next step() picks them up
  /// within the same cycle).
  void fast_forward(Cycle end);

  /// Cycles skipped outright by fast-forward (clock jumps, no per-cycle
  /// work at all) since construction.
  [[nodiscard]] std::uint64_t ff_skipped_cycles() const noexcept {
    return ff_skipped_cycles_;
  }
  /// Cycles handled by the creation-only idle fast path since construction.
  [[nodiscard]] std::uint64_t ff_idle_stepped_cycles() const noexcept {
    return ff_idle_stepped_cycles_;
  }

  /// run() then reset stats and open the measurement window — call once
  /// after the warmup phase.
  void warmup(Cycle cycles);

  /// run() then close the measurement window.
  void measure(Cycle cycles);

  [[nodiscard]] Cycle now() const noexcept { return now_; }
  [[nodiscard]] const SwitchConfig& config() const noexcept { return config_; }
  [[nodiscard]] const traffic::Workload& workload() const noexcept {
    return workload_;
  }

  // ---- statistics (valid after measure()) ----
  /// Packet latency: delivery − input-buffer entry (or − creation when
  /// config.latency_from_creation).
  [[nodiscard]] const stats::LatencyRecorder& latency() const noexcept {
    return latency_;
  }
  /// Arbitration waiting time: grant − input-buffer entry. The quantity
  /// bounded by Eq. (1) for GL packets.
  [[nodiscard]] const stats::LatencyRecorder& wait() const noexcept {
    return wait_;
  }
  [[nodiscard]] const stats::ThroughputMeter& throughput() const noexcept {
    return throughput_;
  }
  [[nodiscard]] std::uint64_t delivered_packets(FlowId f) const;
  [[nodiscard]] std::uint64_t created_packets(FlowId f) const;
  /// Deepest source-queue backlog seen (packets) — a saturation indicator.
  [[nodiscard]] std::size_t max_source_backlog(FlowId f) const;

  /// Per-output channel occupancy inside the measurement window.
  struct ChannelUsage {
    std::uint64_t arbitration_cycles = 0;
    std::uint64_t transfer_cycles = 0;
  };
  [[nodiscard]] ChannelUsage channel_usage(OutputId o) const;

  /// PVC-mode statistics (0 unless pvc.preemption).
  [[nodiscard]] std::uint64_t preemptions(OutputId o) const;
  [[nodiscard]] std::uint64_t wasted_flits() const noexcept {
    return wasted_flits_;
  }

  /// Matching-engine convergence counters (all 0 unless config.engine):
  /// arbitration cycles run, iterations the engine reported across them,
  /// and pairs committed — avg iterations/cycle is the stability-lab
  /// convergence metric on live-switch runs.
  struct EngineStats {
    std::uint64_t cycles = 0;
    std::uint64_t iterations = 0;
    std::uint64_t matches = 0;
  };
  [[nodiscard]] const EngineStats& engine_stats() const noexcept {
    return engine_stats_;
  }

  // ---- introspection ----
  [[nodiscard]] const InputPort& input(InputId i) const;
  [[nodiscard]] core::OutputQosArbiter& qos_arbiter(OutputId o);
  [[nodiscard]] const core::OutputQosArbiter& qos_arbiter(OutputId o) const;
  [[nodiscard]] bool output_idle(OutputId o) const;

  // ---- observability ----
  /// Attaches (or with nullptr detaches) the observability probe. While
  /// attached, every packet-lifecycle step and — in SSVC mode — every
  /// arbitration-internal event is reported; detached, each hook site costs
  /// a single branch on this pointer (the null-sink fast path). The probe
  /// must outlive the switch or be detached first.
  void attach_probe(obs::SwitchProbe* probe);
  [[nodiscard]] obs::SwitchProbe* probe() const noexcept { return obs_; }

  // ---- fault injection / recovery ----
  /// Attaches (or with nullptr detaches) a fault injector. While attached it
  /// runs at the top of every step() and its port/crosspoint outages gate
  /// request selection; the LRG arbiters switch to fault-tolerant (graceful
  /// degradation) mode. Detached, each hook site costs a single branch on
  /// this pointer. SSVC mode only for state corruption; outages apply in
  /// every mode. The injector must outlive the switch or be detached first.
  void attach_fault_injector(fault::FaultInjector* injector);
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return fault_;
  }

  /// Attaches (or with nullptr detaches) the periodic state scrubber, which
  /// then runs at its interval from inside step(). Same lifetime rule.
  void attach_scrubber(fault::StateScrubber* scrubber);
  [[nodiscard]] fault::StateScrubber* scrubber() const noexcept {
    return scrub_;
  }

 private:
  struct Transmission {
    Packet pkt;
    Cycle first_flit = 0;
    Cycle last_flit = 0;
    bool active = false;
    std::uint32_t granted_level = 0;  // PVC level at grant time
  };

  /// Packet creation into source queues (injector RNG rolls live here).
  void inject_create();
  /// GSF bookkeeping + per-input admission of created packets into buffers.
  void inject_admit();
  void transfer();
  void select_requests(std::vector<PendingRequest>& pending) const;
  void arbitrate();
  /// SSVC + bit-sliced kernel: per-output packed request masks straight to
  /// pick_masked(), skipping the counting sort.
  void arbitrate_masked();
  void arbitrate_matched();
  /// Matching-engine allocation (config.engine != None): build the
  /// eligibility/backlog view, let the engine compute a matching, commit it.
  void arbitrate_engine();
  void preempt_scan();
  /// Pops the winner's packet, charges usage, seizes the channel.
  void commit_grant(InputId winner, OutputId o, TrafficClass cls);
  /// Highest-priority ready head of input i for output o, or nullptr.
  [[nodiscard]] const Packet* candidate_for(InputId i, OutputId o) const;
  void start_transmission(Packet&& pkt, OutputId o, Cycle first_flit);
  void complete(Transmission& t, OutputId o);
  Packet pop_for(InputId i, TrafficClass cls, OutputId o);

  // Admit-mask bookkeeping; call right after pushing to / popping from
  // source_q_[f] (src == the flow's source input).
  void note_source_push(FlowId f, InputId src) {
    if (source_q_[f].size() == 1) {
      if (nonempty_src_flows_[src]++ == 0) admit_mask_ |= 1ULL << src;
    }
  }
  void note_source_pop(FlowId f, InputId src) {
    if (source_q_[f].empty()) {
      SSQ_EXPECT(nonempty_src_flows_[src] > 0);
      if (--nonempty_src_flows_[src] == 0) admit_mask_ &= ~(1ULL << src);
    }
  }

  SwitchConfig config_;
  traffic::Workload workload_;
  Rng rng_;
  Cycle now_ = 0;
  PacketId next_packet_id_ = 0;

  // ---- idle-cycle fast-forward state ----
  // Packets alive anywhere in the switch (created, not yet delivered; a
  // preempted packet stays alive). 0 <=> every queue and channel is empty.
  std::uint64_t live_packets_ = 0;
  // inject_create() already ran for the current cycle (set by
  // fast_forward() when creation fires); step() must not run it again.
  bool create_pending_ = false;
  std::uint64_t ff_skipped_cycles_ = 0;
  std::uint64_t ff_idle_stepped_cycles_ = 0;
  // Eligibility depends only on the (immutable) config; computed once in
  // the constructor so run loops read one flag instead of re-deriving it
  // per iteration.
  bool ff_eligible_ = false;

  std::vector<InputPort> inputs_;
  std::vector<Cycle> output_free_at_;
  std::vector<Transmission> transmissions_;  // per output
  // Bit o set <=> transmissions_[o].active; lets transfer() visit only live
  // channels instead of scanning all `radix` transmissions every cycle.
  std::uint64_t active_out_ = 0;

  // QoS or baseline arbitration state, one per output.
  std::vector<std::unique_ptr<core::OutputQosArbiter>> qos_;
  std::vector<std::unique_ptr<arb::Arbiter>> baseline_;
  // Matching engine (config.engine != None): replaces the per-output grant
  // step wholesale; the qos_ arbiters stay idle.
  std::unique_ptr<arb::MatchingEngine> engine_;
  EngineStats engine_stats_;

  // Traffic plumbing, indexed by FlowId.
  std::vector<traffic::Injector> injectors_;
  // SoA bank advancing all strict-interior Bernoulli streams in lock-step
  // (one simd::xoshiro_batch pass per cycle instead of a per-injector roll).
  // unique_ptr: injectors hold its address, which must survive a switch move.
  std::unique_ptr<traffic::BernoulliBank> bern_bank_;
  std::vector<RingQueue<Packet>> source_q_;
  std::vector<std::size_t> max_backlog_;
  // Per-flow packet counts (a preempted packet retransmitted from its source
  // is admitted again).
  std::vector<std::uint64_t> created_;
  std::vector<std::uint64_t> admitted_;
  std::vector<std::uint64_t> delivered_;
  // Per-input list of its flows + acceptance round-robin pointer.
  std::vector<std::vector<FlowId>> input_flows_;
  std::vector<std::size_t> accept_ptr_;
  // Admission pruning: bit i set <=> some flow sourced at input i has a
  // non-empty source queue (count kept per input; transitions maintained at
  // every source_q_ push/pop). inject_admit() walks only these inputs.
  std::vector<std::uint32_t> nonempty_src_flows_;
  std::uint64_t admit_mask_ = 0;
  // GSF source regulation: per-flow packet quota per frame and usage in the
  // current frame; frame boundary bookkeeping.
  std::vector<std::uint32_t> gsf_quota_;   // 0 = unregulated (BE/GL)
  std::vector<std::uint32_t> gsf_used_;
  Cycle gsf_frame_start_ = 0;
  // IterativeMatching: per-input rotating accept pointer over outputs.
  std::vector<OutputId> accept_out_ptr_;
  // Per-cycle scratch arena: sized at construction, reused every step so the
  // steady-state cycle loop never touches the heap.
  StepScratch scratch_;
  // (src, dst, cls-bucket) -> FlowId for attributing granted packets.
  // GB flows are crosspoint-exclusive; BE/GL may multiplex per input.

  stats::LatencyRecorder latency_;
  stats::LatencyRecorder wait_;
  stats::ThroughputMeter throughput_;
  std::vector<ChannelUsage> usage_;  // per output, measurement window only
  std::vector<std::uint64_t> preemptions_;  // per output (PVC mode)
  std::uint64_t wasted_flits_ = 0;
  bool measuring_ = true;
  obs::SwitchProbe* obs_ = nullptr;  // null = observability off
  fault::FaultInjector* fault_ = nullptr;  // null = fault injection off
  fault::StateScrubber* scrub_ = nullptr;  // null = scrubbing off
};

}  // namespace ssq::sw
