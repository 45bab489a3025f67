#include "traffic/workload_io.hpp"

#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/error.hpp"

namespace ssq::traffic {

FieldMap::FieldMap(const std::vector<std::string>& tokens,
                   const std::string& where)
    : where_(where) {
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto eq = tokens[t].find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("expected key=value, got '" + tokens[t] + "'");
    }
    std::string key = tokens[t].substr(0, eq);
    for (const Field& f : fields_) {
      if (f.key == key) fail("field '" + key + "' given twice");
    }
    fields_.push_back({std::move(key), tokens[t].substr(eq + 1)});
  }
}

void FieldMap::fail(const std::string& what) const {
  throw ssq::ConfigError(where_ + ": " + what);
}

std::optional<std::string> FieldMap::get(std::string_view key) {
  for (Field& f : fields_) {
    if (f.key == key) {
      f.read = true;
      return f.value;
    }
  }
  return std::nullopt;
}

std::string FieldMap::require(std::string_view key) {
  auto v = get(key);
  if (!v) fail("missing field '" + std::string(key) + "'");
  return *v;
}

double FieldMap::number(std::string_view key, double fallback) {
  const std::optional<std::string> v = get(key);
  if (!v) return fallback;
  if (const auto x = to_double(*v)) return *x;
  fail("field '" + std::string(key) + "' is not a number: " + *v);
}

double FieldMap::require_number(std::string_view key) {
  (void)require(key);
  return number(key, 0.0);
}

void FieldMap::done() const {
  for (const Field& f : fields_) {
    if (!f.read) fail("unknown field '" + f.key + "'");
  }
}

LineReader::LineReader(std::istream& in, std::string format, std::string file)
    : in_(in), format_(std::move(format)), file_(std::move(file)) {}

bool LineReader::next() {
  std::string line;
  while (std::getline(in_, line)) {
    ++line_;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    tokens_.clear();
    for (std::string tok; ls >> tok;) tokens_.push_back(std::move(tok));
    if (!tokens_.empty()) return true;
  }
  return false;
}

std::uint32_t LineReader::radix() const {
  if (tokens_.size() != 2) fail("radix <N>");
  const auto radix = to_uint<std::uint32_t>(tokens_[1]);
  if (!radix) fail("radix '" + tokens_[1] + "' is not an unsigned integer");
  if (*radix < 2 || *radix > 64) fail("radix out of range [2,64]");
  return *radix;
}

FieldMap LineReader::parse_fields() const { return {tokens_, where()}; }

void LineReader::fail(const std::string& what) const {
  throw ssq::ConfigError(where() + ": " + what);
}

std::string LineReader::where() const {
  return format_ + " parse error at " + file_ + ":" + std::to_string(line_);
}

namespace {

TrafficClass parse_class(const FieldMap& f, const std::string& s) {
  if (s == "be") return TrafficClass::BestEffort;
  if (s == "gb") return TrafficClass::GuaranteedBandwidth;
  if (s == "gl") return TrafficClass::GuaranteedLatency;
  f.fail("unknown class '" + s + "' (be|gb|gl)");
}

InjectKind parse_inject(const FieldMap& f, const std::string& s) {
  if (s == "bernoulli") return InjectKind::Bernoulli;
  if (s == "onoff") return InjectKind::OnOff;
  if (s == "periodic") return InjectKind::Periodic;
  if (s == "burst") return InjectKind::BurstOnce;
  f.fail("unknown inject '" + s + "' (bernoulli|onoff|periodic|burst)");
}

const char* class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::BestEffort: return "be";
    case TrafficClass::GuaranteedBandwidth: return "gb";
    case TrafficClass::GuaranteedLatency: return "gl";
  }
  return "?";
}

const char* inject_name(InjectKind k) {
  switch (k) {
    case InjectKind::Bernoulli: return "bernoulli";
    case InjectKind::OnOff: return "onoff";
    case InjectKind::Periodic: return "periodic";
    case InjectKind::BurstOnce: return "burst";
  }
  return "?";
}

}  // namespace

FlowSpec read_flow(FieldMap& f) {
  FlowSpec spec;
  spec.src = f.require_integer<InputId>("src");
  spec.dst = f.require_integer<OutputId>("dst");
  spec.cls = parse_class(f, f.get("class").value_or("be"));
  spec.reserved_rate = f.number("rate", 0.0);
  const auto len = f.integer<std::uint32_t>("len", 1);
  spec.len_min = f.integer("len_min", len);
  spec.len_max = f.integer("len_max", len);
  spec.inject = parse_inject(f, f.get("inject").value_or("bernoulli"));
  spec.inject_rate = f.number("load", 0.0);
  spec.mean_on_cycles = f.number("on", 64.0);
  spec.mean_off_cycles = f.number("off", 64.0);
  spec.burst_start = f.integer<Cycle>("burst_start", 0);
  spec.burst_packets = f.integer<std::uint32_t>("burst_packets", 0);
  spec.start_cycle = f.integer<Cycle>("start", 0);
  spec.legacy_priority = f.integer<std::uint32_t>("prio", 0);
  f.done();
  return spec;
}

void write_flow(std::ostream& out, const FlowSpec& f) {
  out << "flow src=" << f.src << " dst=" << f.dst
      << " class=" << class_name(f.cls);
  if (f.cls == TrafficClass::GuaranteedBandwidth) {
    out << " rate=" << f.reserved_rate;
  }
  out << " len_min=" << f.len_min << " len_max=" << f.len_max
      << " inject=" << inject_name(f.inject);
  switch (f.inject) {
    case InjectKind::Bernoulli:
    case InjectKind::Periodic:
      out << " load=" << f.inject_rate;
      break;
    case InjectKind::OnOff:
      out << " load=" << f.inject_rate << " on=" << f.mean_on_cycles
          << " off=" << f.mean_off_cycles;
      break;
    case InjectKind::BurstOnce:
      out << " burst_start=" << f.burst_start
          << " burst_packets=" << f.burst_packets;
      break;
  }
  if (f.start_cycle != 0) out << " start=" << f.start_cycle;
  if (f.legacy_priority != 0) out << " prio=" << f.legacy_priority;
  out << "\n";
}

GlReservation read_gl_reservation(FieldMap& f) {
  GlReservation g;
  g.dst = f.require_integer<OutputId>("dst");
  g.rate = f.require_number("rate");
  g.packet_len = f.integer("len", g.packet_len);
  f.done();
  return g;
}

void write_gl_reservation(std::ostream& out, std::string_view directive,
                          const GlReservation& g) {
  out << directive << " dst=" << g.dst << " rate=" << g.rate
      << " len=" << g.packet_len << "\n";
}

Workload parse_workload(std::istream& in, const std::string& name) {
  std::optional<Workload> workload;
  LineReader r(in, "workload", name);
  while (r.next()) {
    if (r.directive() == "radix") {
      const std::uint32_t radix = r.radix();
      if (workload) r.fail("duplicate radix line");
      workload.emplace(radix);
      continue;
    }
    if (!workload) r.fail("the first directive must be 'radix <N>'");

    FieldMap f = r.parse_fields();
    if (r.directive() == "flow") {
      workload->add_flow(read_flow(f));
    } else if (r.directive() == "gl_reservation") {
      const GlReservation g = read_gl_reservation(f);
      workload->set_gl_reservation(g.dst, g.rate, g.packet_len);
    } else {
      r.fail("unknown directive '" + r.directive() + "'");
    }
  }
  if (!workload) r.fail("empty workload (no 'radix' line)");
  workload->validate();
  return std::move(*workload);
}

Workload load_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ssq::ConfigError("cannot open workload file '" + path + "'");
  }
  return parse_workload(in, path);
}

void write_workload(std::ostream& out, const Workload& workload) {
  out << "radix " << workload.radix() << "\n";
  for (const auto& f : workload.flows()) write_flow(out, f);
  for (OutputId d = 0; d < workload.radix(); ++d) {
    if (workload.gl_reservation_rate(d) > 0.0) {
      write_gl_reservation(
          out, "gl_reservation",
          {d, workload.gl_reservation_rate(d),
           workload.gl_reservation_packet_len(d)});
    }
  }
}

}  // namespace ssq::traffic
