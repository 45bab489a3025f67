// SwitchProbe — the single observability attachment point of the simulator.
//
// The crossbar holds a raw `SwitchProbe*` that is null by default; every
// hot-path hook site is `if (probe) probe->hook(...)`, so the tracing-off
// configuration costs one predictable branch and nothing else (no
// allocation, no formatting, no virtual dispatch). When attached, each hook
// bumps pre-interned metrics-registry handles (plain index adds) and, if a
// tracer is connected, forwards one POD Event to the sink.
//
// The probe speaks only scalar vocabulary types (sim/types.hpp), never
// sw::Packet, so obs sits below core/switch in the dependency order and the
// SSVC output arbiter can report into the same probe.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/types.hpp"

namespace ssq::obs {

class SwitchProbe {
 public:
  explicit SwitchProbe(std::uint32_t radix);

  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }
  /// Secondary event sink, bypassing the tracer and its event limit —
  /// consumers that must see every event to stay correct (conformance
  /// monitor, flight recorder; compose several with a TeeSink) attach here
  /// so a --trace-limit can never starve them.
  void set_extra_sink(TraceSink* sink) noexcept { extra_ = sink; }

  /// Fast-forward notification from the switch: the clock jumped from
  /// `from` to `to` across provably event-free cycles. Forwarded to the
  /// extra sink only — never traced, so trace files stay byte-identical
  /// across fast-forward on/off.
  void clock_jump(Cycle from, Cycle to) {
    if (extra_ != nullptr) extra_->on_clock_jump(from, to);
  }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }

  // ---- per-output aggregates (snapshot sampling reads these) ----
  [[nodiscard]] std::uint64_t grants_for_output(OutputId o) const {
    return metrics_.value(grants_out_[o]);
  }
  [[nodiscard]] std::uint64_t auxvc_saturations(OutputId o) const {
    return metrics_.value(auxvc_sat_out_[o]);
  }
  [[nodiscard]] std::uint64_t gl_stalls(OutputId o) const {
    return metrics_.value(gl_stall_out_[o]);
  }

  // ---- packet lifecycle hooks (called by CrossbarSwitch) ----
  void packet_created(Cycle now, FlowId flow, PacketId pkt, InputId src,
                      OutputId dst, TrafficClass cls, std::uint32_t len,
                      std::uint64_t backlog);
  void packet_buffered(Cycle now, FlowId flow, PacketId pkt, InputId src,
                       OutputId dst, TrafficClass cls, std::uint32_t len);
  void admit_blocked(Cycle now, FlowId flow, InputId src, OutputId dst,
                     TrafficClass cls, std::uint32_t len);
  void request(Cycle now, InputId input, OutputId output, TrafficClass cls);
  void grant(Cycle now, InputId input, OutputId output, TrafficClass cls,
             FlowId flow, PacketId pkt, std::uint32_t len, Cycle wait,
             bool chained);
  void transfer_start(Cycle first_flit, InputId input, OutputId output,
                      TrafficClass cls, FlowId flow, PacketId pkt,
                      std::uint32_t len);
  void delivered(Cycle now, InputId input, OutputId output, TrafficClass cls,
                 FlowId flow, PacketId pkt, std::uint32_t len, Cycle latency);
  void preempted(Cycle now, InputId input, OutputId output, TrafficClass cls,
                 FlowId flow, PacketId pkt, std::uint64_t wasted_flits);

  // ---- SSVC arbitration hooks (called by core::OutputQosArbiter) ----
  void gl_stall(Cycle now, OutputId output, std::uint64_t overrun);
  void lane_tie_break(Cycle now, OutputId output, TrafficClass cls,
                      InputId winner, std::uint32_t lane_level,
                      std::uint32_t candidates);
  void auxvc_saturated(Cycle now, OutputId output, InputId input,
                       std::uint64_t cap);
  void epoch_wrap(Cycle now, OutputId output);
  void mgmt_event(Cycle now, OutputId output, bool halve);

  // ---- fault / recovery hooks (called by fault::FaultInjector/Scrubber) ----
  void fault_injected(Cycle now, OutputId output, InputId input,
                      std::uint32_t target, std::uint64_t detail);
  void scrub_repair(Cycle now, OutputId output, InputId input,
                    std::uint32_t repair_kind);
  void lane_quarantined(Cycle now, OutputId output, std::uint32_t lane);
  void port_outage(Cycle now, InputId input, bool down);

 private:
  void emit(const Event& e) {
    if (extra_ != nullptr) extra_->on_event(e);
    if (tracer_ != nullptr) tracer_->emit(e);
  }

  std::uint32_t radix_;
  MetricsRegistry metrics_;
  Tracer* tracer_ = nullptr;
  TraceSink* extra_ = nullptr;

  // Pre-interned handles: global counters...
  CounterId created_, buffered_, blocked_, requests_, grants_, chain_grants_,
      delivered_flits_, delivered_pkts_, preemptions_, wasted_flits_,
      epoch_wraps_, mgmt_halves_, mgmt_resets_, tie_breaks_,
      faults_injected_, scrub_repairs_, quarantines_, port_outages_;
  // ...per-class grant counters (BE/GB/GL)...
  CounterId grants_cls_[kNumClasses];
  // ...and per-output counters.
  std::vector<CounterId> grants_out_;
  std::vector<CounterId> auxvc_sat_out_;
  std::vector<CounterId> gl_stall_out_;
  std::vector<CounterId> scrub_repairs_out_;
  HistogramId wait_hist_, latency_hist_;
};

}  // namespace ssq::obs
