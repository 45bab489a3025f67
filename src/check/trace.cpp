#include "check/trace.hpp"

#include <ostream>
#include <sstream>

#include "obs/probe.hpp"

namespace ssq::check {

namespace {

void put_port(std::ostream& os, std::uint32_t p) {
  if (p == kNoPort) {
    os << '-';
  } else {
    os << p;
  }
}

void put_id(std::ostream& os, std::uint64_t id) {
  if (id == obs::kNoId) {
    os << '-';
  } else {
    os << id;
  }
}

}  // namespace

bool GoldenTraceSink::selected(obs::EventKind k) noexcept {
  switch (k) {
    case obs::EventKind::Grant:
    case obs::EventKind::ChainGrant:
    case obs::EventKind::Delivered:
    case obs::EventKind::Preempted:
    case obs::EventKind::MgmtHalve:
    case obs::EventKind::MgmtReset:
    case obs::EventKind::FaultInjected:
    case obs::EventKind::ScrubRepair:
    case obs::EventKind::LaneQuarantined:
    case obs::EventKind::PortOutage:
      return true;
    case obs::EventKind::PacketCreated:
    case obs::EventKind::PacketBuffered:
    case obs::EventKind::AdmitBlocked:
    case obs::EventKind::Request:
    case obs::EventKind::TransferStart:
    case obs::EventKind::GlStall:
    case obs::EventKind::LaneTieBreak:
    case obs::EventKind::AuxVcSaturated:
    case obs::EventKind::EpochWrap:
      return false;
  }
  return false;
}

void GoldenTraceSink::on_event(const obs::Event& e) {
  if (!selected(e.kind)) return;
  os_ << obs::to_string(e.kind) << ' ' << e.cycle << ' '
      << ssq::to_string(e.cls) << ' ';
  put_port(os_, e.input);
  os_ << ' ';
  put_port(os_, e.output);
  os_ << ' ';
  put_id(os_, e.flow);
  os_ << ' ';
  put_id(os_, e.packet);
  os_ << ' ' << e.length << ' ' << e.arg0 << ' ' << e.arg1 << '\n';
  ++lines_;
  if (e.cycle > last_cycle_) last_cycle_ = e.cycle;
}

void GoldenTraceSink::finish() {
  if (finished_) return;
  finished_ = true;
  os_ << "end events=" << lines_ << " last_cycle=" << last_cycle_ << '\n';
}

bool GoldenTraceSink::ok() const { return static_cast<bool>(os_); }

std::string golden_trace(const Scenario& s) {
  ScenarioRun rig = instantiate(s);
  std::ostringstream out;
  GoldenTraceSink sink(out);
  obs::Tracer tracer(sink);
  obs::SwitchProbe probe(s.radix);
  probe.set_tracer(&tracer);
  rig.sim->attach_probe(&probe);
  // run(), not a manual step loop: eligible scenarios jump idle stretches
  // here, so the golden corpus asserts the skipped cycles are invisible.
  rig.sim->run(s.cycles);
  rig.sim->attach_probe(nullptr);
  tracer.finish();
  return out.str();
}

}  // namespace ssq::check
