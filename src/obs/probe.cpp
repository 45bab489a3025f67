#include "obs/probe.hpp"

#include <string>

namespace ssq::obs {

namespace {

std::string out_name(const char* stem, OutputId o) {
  return std::string(stem) + std::to_string(o);
}

}  // namespace

SwitchProbe::SwitchProbe(std::uint32_t radix) : radix_(radix) {
  SSQ_EXPECT(radix >= 1 && radix <= 64);
  created_ = metrics_.counter("switch.packets.created");
  buffered_ = metrics_.counter("switch.packets.buffered");
  blocked_ = metrics_.counter("switch.admit.blocked");
  requests_ = metrics_.counter("switch.requests");
  grants_ = metrics_.counter("arb.grants");
  chain_grants_ = metrics_.counter("arb.grants.chained");
  delivered_flits_ = metrics_.counter("switch.delivered.flits");
  delivered_pkts_ = metrics_.counter("switch.delivered.packets");
  preemptions_ = metrics_.counter("switch.preemptions");
  wasted_flits_ = metrics_.counter("switch.wasted.flits");
  epoch_wraps_ = metrics_.counter("ssvc.epoch_wraps");
  mgmt_halves_ = metrics_.counter("ssvc.mgmt.halve");
  mgmt_resets_ = metrics_.counter("ssvc.mgmt.reset");
  tie_breaks_ = metrics_.counter("ssvc.lane_tie_breaks");
  faults_injected_ = metrics_.counter("fault.injected");
  scrub_repairs_ = metrics_.counter("fault.scrub.repairs");
  quarantines_ = metrics_.counter("fault.quarantines");
  port_outages_ = metrics_.counter("fault.port_outages");
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    grants_cls_[c] = metrics_.counter(
        std::string("arb.grants.") +
        std::string(to_string(static_cast<TrafficClass>(c))));
  }
  grants_out_.reserve(radix);
  auxvc_sat_out_.reserve(radix);
  gl_stall_out_.reserve(radix);
  scrub_repairs_out_.reserve(radix);
  for (OutputId o = 0; o < radix; ++o) {
    grants_out_.push_back(metrics_.counter(out_name("arb.grants.out", o)));
    auxvc_sat_out_.push_back(
        metrics_.counter(out_name("ssvc.auxvc_saturations.out", o)));
    gl_stall_out_.push_back(
        metrics_.counter(out_name("ssvc.gl_stalls.out", o)));
    scrub_repairs_out_.push_back(
        metrics_.counter(out_name("fault.repairs.out", o)));
  }
  wait_hist_ = metrics_.histogram("switch.wait.cycles", 8.0, 64);
  latency_hist_ = metrics_.histogram("switch.latency.cycles", 16.0, 64);
}

void SwitchProbe::packet_created(Cycle now, FlowId flow, PacketId pkt,
                                 InputId src, OutputId dst, TrafficClass cls,
                                 std::uint32_t len, std::uint64_t backlog) {
  metrics_.add(created_);
  emit({now, EventKind::PacketCreated, cls, src, dst, flow, pkt, len, backlog,
        0});
}

void SwitchProbe::packet_buffered(Cycle now, FlowId flow, PacketId pkt,
                                  InputId src, OutputId dst, TrafficClass cls,
                                  std::uint32_t len) {
  metrics_.add(buffered_);
  emit({now, EventKind::PacketBuffered, cls, src, dst, flow, pkt, len, 0, 0});
}

void SwitchProbe::admit_blocked(Cycle now, FlowId flow, InputId src,
                                OutputId dst, TrafficClass cls,
                                std::uint32_t len) {
  metrics_.add(blocked_);
  emit({now, EventKind::AdmitBlocked, cls, src, dst, flow, kNoId, len, 0, 0});
}

void SwitchProbe::request(Cycle now, InputId input, OutputId output,
                          TrafficClass cls) {
  metrics_.add(requests_);
  emit({now, EventKind::Request, cls, input, output, kNoId, kNoId, 0, 0, 0});
}

void SwitchProbe::grant(Cycle now, InputId input, OutputId output,
                        TrafficClass cls, FlowId flow, PacketId pkt,
                        std::uint32_t len, Cycle wait, bool chained) {
  metrics_.add(grants_);
  metrics_.add(grants_cls_[static_cast<std::size_t>(cls)]);
  metrics_.add(grants_out_[output]);
  if (chained) metrics_.add(chain_grants_);
  metrics_.observe(wait_hist_, static_cast<double>(wait));
  emit({now, chained ? EventKind::ChainGrant : EventKind::Grant, cls, input,
        output, flow, pkt, len, wait, 0});
}

void SwitchProbe::transfer_start(Cycle first_flit, InputId input,
                                 OutputId output, TrafficClass cls,
                                 FlowId flow, PacketId pkt,
                                 std::uint32_t len) {
  emit({first_flit, EventKind::TransferStart, cls, input, output, flow, pkt,
        len, 0, 0});
}

void SwitchProbe::delivered(Cycle now, InputId input, OutputId output,
                            TrafficClass cls, FlowId flow, PacketId pkt,
                            std::uint32_t len, Cycle latency) {
  metrics_.add(delivered_pkts_);
  metrics_.add(delivered_flits_, len);
  metrics_.observe(latency_hist_, static_cast<double>(latency));
  emit({now, EventKind::Delivered, cls, input, output, flow, pkt, len, latency,
        0});
}

void SwitchProbe::preempted(Cycle now, InputId input, OutputId output,
                            TrafficClass cls, FlowId flow, PacketId pkt,
                            std::uint64_t wasted_flits) {
  metrics_.add(preemptions_);
  metrics_.add(wasted_flits_, wasted_flits);
  emit({now, EventKind::Preempted, cls, input, output, flow, pkt, 0,
        wasted_flits, 0});
}

void SwitchProbe::gl_stall(Cycle now, OutputId output, std::uint64_t overrun) {
  metrics_.add(gl_stall_out_[output]);
  emit({now, EventKind::GlStall, TrafficClass::GuaranteedLatency, kNoPort,
        output, kNoId, kNoId, 0, overrun, 0});
}

void SwitchProbe::lane_tie_break(Cycle now, OutputId output, TrafficClass cls,
                                 InputId winner, std::uint32_t lane_level,
                                 std::uint32_t candidates) {
  metrics_.add(tie_breaks_);
  emit({now, EventKind::LaneTieBreak, cls, winner, output, kNoId, kNoId, 0,
        lane_level, candidates});
}

void SwitchProbe::auxvc_saturated(Cycle now, OutputId output, InputId input,
                                  std::uint64_t cap) {
  metrics_.add(auxvc_sat_out_[output]);
  emit({now, EventKind::AuxVcSaturated, TrafficClass::GuaranteedBandwidth,
        input, output, kNoId, kNoId, 0, cap, 0});
}

void SwitchProbe::epoch_wraps(Cycle now, OutputId output, std::uint64_t k) {
  metrics_.add(epoch_wraps_, k);
  if (extra_ == nullptr && tracer_ == nullptr) return;  // k may be large
  const Event e{now, EventKind::EpochWrap, TrafficClass::GuaranteedBandwidth,
                kNoPort, output, kNoId, kNoId, 0, 0, 0};
  for (std::uint64_t j = 0; j < k; ++j) emit(e);
}

void SwitchProbe::mgmt_event(Cycle now, OutputId output, bool halve) {
  metrics_.add(halve ? mgmt_halves_ : mgmt_resets_);
  emit({now, halve ? EventKind::MgmtHalve : EventKind::MgmtReset,
        TrafficClass::GuaranteedBandwidth, kNoPort, output, kNoId, kNoId, 0, 0,
        0});
}

void SwitchProbe::fault_injected(Cycle now, OutputId output, InputId input,
                                 std::uint32_t target, std::uint64_t detail) {
  metrics_.add(faults_injected_);
  emit({now, EventKind::FaultInjected, TrafficClass::BestEffort, input, output,
        kNoId, kNoId, 0, target, detail});
}

void SwitchProbe::scrub_repair(Cycle now, OutputId output, InputId input,
                               std::uint32_t repair_kind) {
  metrics_.add(scrub_repairs_);
  if (output != kNoPort) metrics_.add(scrub_repairs_out_[output]);
  emit({now, EventKind::ScrubRepair, TrafficClass::BestEffort, input, output,
        kNoId, kNoId, 0, repair_kind, 0});
}

void SwitchProbe::lane_quarantined(Cycle now, OutputId output,
                                   std::uint32_t lane) {
  metrics_.add(quarantines_);
  emit({now, EventKind::LaneQuarantined, TrafficClass::GuaranteedBandwidth,
        kNoPort, output, kNoId, kNoId, 0, lane, 0});
}

void SwitchProbe::port_outage(Cycle now, InputId input, bool down) {
  metrics_.add(port_outages_);
  emit({now, EventKind::PortOutage, TrafficClass::BestEffort, input, kNoPort,
        kNoId, kNoId, 0, down ? 1u : 0u, 0});
}

}  // namespace ssq::obs
