// The cycle-accurate single-crossbar Swizzle Switch model.
//
// Machine model (one cycle):
//   1. inject  — flow injectors create packets into unbounded source queues
//                (only flows whose next creation cycle has come are
//                visited: each injector reports it, pre-rolling its private
//                stream); each input port admits at most one packet per
//                cycle into its (finite) class buffers.
//   2. transfer — every active transmission moves one flit across its output
//                channel; buffer space drains; completing packets are
//                recorded.
//   3. arbitrate — each idle input asserts at most ONE request (its bus
//                carries one flit/cycle): GL head first, then GB heads by a
//                rotating output pointer, then BE, restricted to idle output
//                channels. Each requested idle output runs one
//                single-cycle arbitration (three-class SSVC, or a
//                class-blind baseline arbiter) and the winner's packet
//                seizes the channel for 1 arbitration cycle + `length`
//                transfer cycles. Under a matching engine every idle input
//                instead exposes all its heads through the matching view
//                (fill_view), which the engine reads.
//
// An output is idle when it is neither transmitting (active_out_) nor
// carrying the last flit of a transmission this cycle (done_out_): that one
// idle set is what selection, every allocator and output_idle() read.
//
// Stepping does only the work an event makes due (the tick-on-event idiom).
// Creation visits only the flows a creation wheel files under the current
// cycle. Requests and their per-output class masks are kept across cycles: an
// input is selected again only when something its selection reads changed
// (select_requests() lists the rules). The matching view is kept too: only
// the rows of inputs whose heads or crosspoints changed are rebuilt
// (fill_view()). An input whose every queued packet was refused for lack of
// buffer space sleeps in admission until a flit of its buffers drains or a
// new flow of it turns non-empty.
//
// The 1-cycle arbitration occupancy is intrinsic: the Swizzle Switch
// repurposes the output data bus for arbitration, so a channel cannot
// arbitrate and transfer simultaneously — this is what caps Fig. 4 at
// 8/(8+1) ≈ 0.89 flits/cycle for 8-flit packets, and what the optional
// Packet Chaining extension recovers.
#pragma once

#include <bit>
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

  /// run() with hooks — the one loop that chooses between jumping and
  /// stepping. `on_step()` runs after each step() and returns false to stop
  /// the run there; `on_jump(from, to)` runs after each fast_forward() that
  /// moved the clock. A fast_forward() that stops at `from` (something is due
  /// now) falls through to the step that runs it.
  template <typename OnStep, typename OnJump>
  void run(Cycle cycles, OnStep&& on_step, OnJump&& on_jump) {
    const Cycle end = now_ + cycles;
    while (now_ < end) {
      if (config_.fast_forward && quiescent()) {
        const Cycle from = now_;
        fast_forward(end);
        if (now_ != from) on_jump(from, now_);
        if (now_ >= end) break;
      }
      step();
      if (!on_step()) return;
    }
  }

  /// True when the configuration permits idle-cycle fast-forward, which is
  /// config.fast_forward alone: every mode and every attachment is eligible.
  /// Fault injectors, scrubbers, probes/monitors and GSF regulation take
  /// part through the event-horizon protocol (event_horizon.hpp):
  /// schedule-driven consumers clamp the jump to their next event, RNG
  /// streams are pre-rolled, and window consumers catch up retroactively.
  /// No arbiter, SSVC or baseline, changes on a cycle without requests.
  [[nodiscard]] bool fast_forward_eligible() const noexcept {
    return config_.fast_forward;
  }

  /// True when no packet exists anywhere (source queues, input buffers, or
  /// in flight).
  [[nodiscard]] bool quiescent() const noexcept { return live_packets_ == 0; }

  /// Fast-forwards from now() toward `end` (absolute cycle) if the switch is
  /// quiescent. Requires fast_forward_eligible(). Folds every attached
  /// consumer's horizon (EventHorizon): each injector's next creation cycle
  /// (stochastic sources pre-roll their streams to find it), the fault
  /// plan's outage/stuck schedule, the pre-rolled bitflip stream, and the
  /// scrubber's next pass. Then the clock jumps to the horizon, or stays put
  /// when something is due now. Returns with now() == end or at a cycle
  /// some consumer needs stepped; the caller's next step() runs it.
  void fast_forward(Cycle end);

  /// Cycles skipped outright by fast-forward (clock jumps, no per-cycle
  /// work at all) since construction.
  [[nodiscard]] std::uint64_t ff_skipped_cycles() const noexcept {
    return ff_skipped_cycles_;
  }
  /// Always 0: fast-forward no longer steps idle cycles one by one. Kept for
  /// reports that still print it.
  [[nodiscard]] std::uint64_t ff_idle_stepped_cycles() const noexcept {
    return 0;
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
  /// Packets flow f created inside the measurement window (since warmup()
  /// opened it, or since construction) — the offered load.
  [[nodiscard]] std::uint64_t window_created_packets(FlowId f) const;
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
  /// and pairs committed — avg iterations/cycle is the engine's
  /// convergence metric.
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
  /// Output o's SSVC arbiter. Requires SsvcQos mode and no matching engine
  /// (an engine is the whole arbitration state: no per-output arbiter).
  [[nodiscard]] core::OutputQosArbiter& qos_arbiter(OutputId o);
  [[nodiscard]] const core::OutputQosArbiter& qos_arbiter(OutputId o) const;
  [[nodiscard]] bool output_idle(OutputId o) const;

  /// The request input i asserts in single-request mode at cycle `now`,
  /// given the outputs `idle` that cycle: its GL head, else its first GB
  /// head from the rotating pointer, else its BE head — each only toward an
  /// idle output over a live crosspoint; none while the port is busy or
  /// dead. The one selection function: step() calls it for the inputs it
  /// re-selects, and it is the specification the kept requests must match
  /// for every input, read on the idle outputs: a kept request on a busy
  /// output o counts as none, and equals select_one(i, idle | 1 << o).
  [[nodiscard]] PendingRequest select_one(InputId i, std::uint64_t idle,
                                          Cycle now) const;

  /// Highest-priority head input i holds for output o (GL, then GB, then
  /// BE), or nullptr. The class a matching view's pair (i, o) carries.
  [[nodiscard]] const Packet* candidate_for(InputId i, OutputId o) const;

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
  /// this pointer. State corruption (bitflips, stuck lanes) targets the SSVC
  /// arbiters, so it acts only in SsvcQos mode without a matching engine;
  /// outages apply in every mode. The injector must outlive the switch or be
  /// detached first.
  void attach_fault_injector(fault::FaultInjector* injector);
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return fault_;
  }

  /// Attaches (or with nullptr detaches) the periodic state scrubber, which
  /// then runs at its interval from inside step() over the SSVC arbiters
  /// (none in baseline mode or under an engine). Same lifetime rule.
  void attach_scrubber(fault::StateScrubber* scrubber);
  [[nodiscard]] fault::StateScrubber* scrubber() const noexcept {
    return scrub_;
  }

 private:
  struct Transmission {
    Packet pkt;
    Cycle first_flit = 0;
    Cycle last_flit = 0;
    std::uint32_t granted_level = 0;  // PVC level at grant (preemption)
  };

  /// Packet creation into source queues for the flows filed in the creation
  /// wheel's slot for now_ (after pulling in the overflow entries that came
  /// within the wheel's reach); re-arms each visited flow.
  void inject_create();
  /// How far ahead inject_create() lets a stochastic injector pre-roll when
  /// re-arming: step() does not know where the run ends. Any value gives the
  /// same bytes; it only bounds the draws made ahead of the clock. It also
  /// bounds where a stochastic source's re-arm lands: at most
  /// kCreatePreroll + 1 cycles ahead, inside the creation wheel, unless its
  /// start cycle or a roll a fast_forward() already made lies further out.
  static constexpr Cycle kCreatePreroll = 256;
  /// Slots of the creation wheel: one per cycle of [now_, now_ + 512).
  static constexpr Cycle kCreateWheel = 512;
  static_assert(std::has_single_bit(kCreateWheel) &&
                kCreateWheel > kCreatePreroll + 1);
  /// Files flow f under next_create_[f] = c (kNoCycle: nowhere): a wheel
  /// bit when c - now_ < kCreateWheel, an overflow bit otherwise. Requires
  /// c >= now_ and f filed nowhere.
  void arm_create(FlowId f, Cycle c);
  /// Takes flow f out of wherever arm_create() filed it.
  void disarm_create(FlowId f);
  /// The creation wheel's bitmask words for cycle c's slot.
  [[nodiscard]] std::uint64_t* wheel_slot(Cycle c) noexcept {
    return wheel_.data() + (c & (kCreateWheel - 1)) * create_words_;
  }
  /// GSF bookkeeping + per-input admission of created packets into buffers.
  void inject_admit();
  void transfer();
  /// Selects again the requests of the inputs marked in reselect_ and of
  /// those holding a head for an output that turned idle, moving their bits
  /// in the per-output class masks. The .cpp lists the reselect rules.
  void select_requests();
  /// Single-request allocation (no engine): one arbitration per requested
  /// idle output, from the kept requests; a baseline grant first records the
  /// PVC level preempt_scan() compares challengers against.
  void arbitrate();
  /// Brings the matching view the engine reads up to now_. candidates[i] =
  /// the outputs input i holds a head for over a live crosspoint (none while
  /// its port is dead) and `voq` = the backlog behind every candidate
  /// crosspoint (0 elsewhere) are kept across cycles: only the rows of the
  /// inputs marked in reselect_ are rebuilt, and transfer() keeps each
  /// drained cell current (drain_view_cell). eligible[i] = the candidates
  /// idle this cycle (none while the port is busy) is derived afresh.
  /// Returns whether any input holds a candidate.
  bool fill_view();
  /// Recomputes the one `voq` cell of input i that a flit drained from its
  /// (cls, dst) buffer changed.
  void drain_view_cell(InputId i, TrafficClass cls, OutputId dst);
  /// Matching-engine allocation (config.engine != None): hand the view to
  /// the engine, commit the matching it returns.
  void arbitrate_engine();
  void preempt_scan();
  /// The one grant commit: pops the winner's packet, charges usage, seizes
  /// the channel. A chained grant (Packet Chaining, from complete()) skips
  /// the arbitration cycles: its first flit moves next cycle.
  void commit_grant(InputId winner, OutputId o, TrafficClass cls,
                    bool chained);
  void start_transmission(Packet&& pkt, OutputId o, Cycle first_flit);
  void complete(Transmission& t, OutputId o);
  /// The outputs that can start a transmission this cycle.
  [[nodiscard]] std::uint64_t idle_outputs() const noexcept {
    return all_ports_ & ~(active_out_ | done_out_);
  }

  // Admit-mask bookkeeping; call right after pushing to / popping from
  // source_q_[f] (src == the flow's source input).
  void note_source_push(FlowId f, InputId src) {
    if (source_q_[f].size() == 1) {
      if (nonempty_src_flows_[src]++ == 0) admit_mask_ |= 1ULL << src;
      admit_sleep_ &= ~(1ULL << src);  // a new head may fit
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
  std::uint64_t ff_skipped_cycles_ = 0;

  std::vector<InputPort> inputs_;
  std::vector<Transmission> transmissions_;  // per output
  // Bit o set <=> transmissions_[o] is live (granted, not yet completed or
  // preempted); lets transfer() and preempt_scan() visit only live
  // channels instead of scanning all `radix` transmissions every cycle.
  std::uint64_t active_out_ = 0;
  // Bit o set <=> output o's transmission completed this cycle: the channel
  // is busy through the cycle of its last flit and idle from the next (step()
  // clears the mask as it ends), so the idle outputs are exactly those in
  // neither mask.
  std::uint64_t done_out_ = 0;

  // The arbitration state, exactly one kind per switch: one QoS or one
  // baseline arbiter per output, or (config.engine != None) a matching engine
  // that replaces the per-output grant step wholesale and leaves both
  // vectors empty.
  std::vector<std::unique_ptr<core::OutputQosArbiter>> qos_;
  std::vector<std::unique_ptr<arb::Arbiter>> baseline_;
  std::unique_ptr<arb::MatchingEngine> engine_;
  EngineStats engine_stats_;

  // Traffic plumbing, indexed by FlowId.
  std::vector<traffic::Injector> injectors_;
  // Creation calendar: inject_create() visits flow f only once now_ reaches
  // next_create_[f], the injector's next_event(); every cycle before it
  // creates nothing and draws nothing for f. Each flow is filed in exactly
  // one place (arm_create): bit f of the wheel slot for its cycle, which
  // lies in [now_, now_ + kCreateWheel); bit f of the overflow, for a cycle
  // further out; or nowhere, at kNoCycle. A mask is create_words_ words, one
  // per 64 flows; the wheel holds kCreateWheel of them back to back.
  // overflow_min_ is at most the earliest overflow entry (kNoCycle when
  // empty); once it comes within the wheel's reach, inject_create() moves
  // the entries that did into the wheel.
  std::vector<Cycle> next_create_;
  std::size_t create_words_ = 0;
  std::vector<std::uint64_t> wheel_;
  std::vector<std::uint64_t> overflow_;
  Cycle overflow_min_ = kNoCycle;
  std::vector<RingQueue<Packet>> source_q_;
  std::vector<std::size_t> max_backlog_;
  // Per-flow packet counts (a preempted packet retransmitted from its source
  // is admitted again).
  std::vector<std::uint64_t> created_;
  std::vector<std::uint64_t> created_at_open_;  // created_ at warmup()
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
  // Admission sleep: bit i set <=> every non-empty flow of input i was
  // refused by can_accept() at its last visit, so visiting again changes
  // nothing until a flit of its buffers drains (transfer, preempt_scan) or
  // a flow of it turns non-empty (note_source_push). Never set while a
  // probe is attached: each refused visit is an admit_blocked event.
  std::uint64_t admit_sleep_ = 0;
  // Request re-selection marks: reselect_ = inputs select_requests()
  // re-selects this cycle (single-request mode), or whose matching-view row
  // fill_view() rebuilds (under an engine); reselect_next_ = marks made
  // before this cycle's selection that apply from the next one (a port
  // freed by a completing transmission is busy through this cycle).
  std::uint64_t reselect_ = 0;
  std::uint64_t reselect_next_ = 0;
  std::uint64_t all_ports_ = 0;  // bit p set for every port p < radix
  // GSF source regulation: per-flow packet quota per frame and usage in the
  // current frame; frame boundary bookkeeping.
  std::vector<std::uint32_t> gsf_quota_;   // 0 = unregulated (BE/GL)
  std::vector<std::uint32_t> gsf_used_;
  Cycle gsf_frame_start_ = 0;
  // The cycle arena: sized at construction, reused every step so the
  // steady-state cycle loop never touches the heap.
  StepScratch scratch_;

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
