#include "check/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>

#include "obs/conformance.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "switch/observe.hpp"
#include "traffic/workload_io.hpp"

namespace ssq::check {

namespace {

core::CounterPolicy parse_policy(const traffic::FieldMap& f,
                                 const std::string& s) {
  if (s == "subtract_real_clock") return core::CounterPolicy::SubtractRealClock;
  if (s == "halve") return core::CounterPolicy::Halve;
  if (s == "reset") return core::CounterPolicy::Reset;
  if (s == "none") return core::CounterPolicy::None;
  f.fail("unknown policy '" + s + "' (subtract_real_clock|halve|reset|none)");
}

core::GlPolicing parse_policing(const traffic::FieldMap& f,
                                const std::string& s) {
  if (s == "stall") return core::GlPolicing::Stall;
  if (s == "demote") return core::GlPolicing::Demote;
  if (s == "none") return core::GlPolicing::None;
  f.fail("unknown policing '" + s + "' (stall|demote|none)");
}

}  // namespace

sw::SwitchConfig Scenario::build_config() const {
  sw::SwitchConfig config;
  config.radix = radix;
  config.ssvc = ssvc;
  config.buffers = buffers;
  config.mode = sw::ArbitrationMode::SsvcQos;
  config.allocation = matching_engine == arb::MatchKind::None
                          ? sw::AllocationMode::SingleRequest
                          : sw::AllocationMode::IterativeMatching;
  config.engine = matching_engine;
  config.match_iterations = match_iterations;
  config.gl_policing = gl_policing;
  config.gl_allowance_packets = gl_allowance;
  config.gsf = gsf;
  config.arbitration_cycles = arbitration_cycles;
  config.packet_chaining = packet_chaining;
  config.seed = seed;
  config.fast_forward = fast_forward;
  config.validate();
  return config;
}

traffic::Workload Scenario::build_workload() const {
  traffic::Workload w(radix);
  for (const auto& f : flows) w.add_flow(f);
  for (const auto& g : gl_reservations) {
    detail::config_check(g.dst < radix,
                         "gl reservation dst out of range for this radix");
    w.set_gl_reservation(g.dst, g.rate, g.packet_len);
  }
  w.validate();
  return w;
}

void Scenario::validate() const {
  detail::config_check(cycles >= 1, "scenario cycles must be >= 1");
  for (const auto& sl : faults.stuck_lanes) {
    detail::config_check(sl.output < radix, "stuck lane output out of range");
    detail::config_check(sl.lane < ssvc.gb_levels(),
                         "stuck lane index out of range for level_bits");
  }
  for (const auto& pk : faults.port_kills) {
    detail::config_check(pk.input < radix, "port kill input out of range");
  }
  for (const auto& ck : faults.crosspoint_kills) {
    detail::config_check(ck.input < radix && ck.output < radix,
                         "crosspoint kill coordinates out of range");
  }
}

Scenario generate_scenario(std::uint64_t index, std::uint64_t base_seed) {
  Rng rng(base_seed + 0x9e3779b97f4a7c15ULL * (index + 1));
  Scenario s;
  s.name = "gen-" + std::to_string(base_seed) + "-" + std::to_string(index);
  s.seed = rng();

  // Radix: mostly small (fast), occasionally the paper's 64-port far end.
  const std::uint64_t roll = rng.below(100);
  if (roll < 55) {
    s.radix = 4 + static_cast<std::uint32_t>(rng.below(13));  // 4..16
  } else if (roll < 75) {
    s.radix = 8;
  } else if (roll < 85) {
    s.radix = 2 + static_cast<std::uint32_t>(rng.below(2));  // 2..3
  } else if (roll < 95) {
    s.radix = 32;
  } else {
    s.radix = 64;
  }
  if (s.radix <= 16) {
    s.cycles = 1200 + rng.below(1800);
  } else if (s.radix <= 32) {
    s.cycles = 600 + rng.below(600);
  } else {
    s.cycles = 400 + rng.below(300);
  }

  s.ssvc.level_bits = 2 + static_cast<std::uint32_t>(rng.below(3));
  s.ssvc.lsb_bits = 4 + static_cast<std::uint32_t>(rng.below(5));
  s.ssvc.vtick_bits = 6 + static_cast<std::uint32_t>(rng.below(5));
  s.ssvc.vtick_shift = static_cast<std::uint32_t>(rng.below(4));
  s.ssvc.policy = static_cast<core::CounterPolicy>(rng.below(4));

  const std::uint64_t pol = rng.below(10);
  s.gl_policing = pol < 5   ? core::GlPolicing::Stall
                  : pol < 8 ? core::GlPolicing::Demote
                            : core::GlPolicing::None;
  s.gl_allowance = 1 + static_cast<std::uint32_t>(rng.below(48));
  s.packet_chaining = rng.bernoulli(0.25);
  s.arbitration_cycles = rng.bernoulli(0.2) ? 2 : 1;
  if (rng.bernoulli(0.15)) {
    s.gsf.enabled = true;
    s.gsf.frame_cycles = 128 + rng.below(256);
    s.gsf.barrier_cycles = 4 + rng.below(12);
  }
  s.buffers.be_flits = 8 + static_cast<std::uint32_t>(rng.below(24));
  s.buffers.gb_flits_per_output = 8 + static_cast<std::uint32_t>(rng.below(24));
  s.buffers.gl_flits = 4 + static_cast<std::uint32_t>(rng.below(12));

  // Flows: admissible by construction. Per-output GB budget of 0.85 leaves
  // room for a GL reservation of at most 0.11 (total <= 0.96 < 1).
  std::vector<double> budget(s.radix, 0.85);
  std::vector<bool> has_gl(s.radix, false);
  const std::uint64_t n_flows =
      2 + rng.below(std::min<std::uint64_t>(2 * s.radix, 22));
  for (std::uint64_t k = 0; k < n_flows; ++k) {
    traffic::FlowSpec f;
    f.src = static_cast<InputId>(rng.below(s.radix));
    f.dst = static_cast<OutputId>(rng.below(s.radix));
    f.len_min = 1 + static_cast<std::uint32_t>(rng.below(6));
    f.len_max = f.len_min + static_cast<std::uint32_t>(rng.below(6));

    const std::uint64_t kind = rng.below(12);
    if (kind >= 11) {
      f.inject = traffic::InjectKind::BurstOnce;
      f.burst_start = rng.below(std::max<Cycle>(s.cycles / 2, 1));
      f.burst_packets = 1 + static_cast<std::uint32_t>(rng.below(20));
    } else {
      f.inject = kind < 5   ? traffic::InjectKind::Bernoulli
                 : kind < 8 ? traffic::InjectKind::OnOff
                            : traffic::InjectKind::Periodic;
      f.inject_rate = 0.02 + rng.uniform() * 0.4;
      f.mean_on_cycles = 40.0 + rng.uniform() * 160.0;
      f.mean_off_cycles = 40.0 + rng.uniform() * 160.0;
    }
    if (rng.bernoulli(0.2)) f.start_cycle = rng.below(s.cycles / 2 + 1);

    const std::uint64_t cls = rng.below(10);
    if (cls >= 5 && cls < 8 && budget[f.dst] > 0.15) {
      // GB, crosspoint-exclusive, within the output's remaining budget.
      bool taken = false;
      for (const auto& e : s.flows) {
        if (e.cls == TrafficClass::GuaranteedBandwidth && e.src == f.src &&
            e.dst == f.dst) {
          taken = true;
        }
      }
      if (!taken) {
        f.cls = TrafficClass::GuaranteedBandwidth;
        const double room = std::min(budget[f.dst] - 0.05, 0.45);
        f.reserved_rate = 0.05 + rng.uniform() * room;
        budget[f.dst] -= f.reserved_rate;
      }
    } else if (cls >= 8) {
      f.cls = TrafficClass::GuaranteedLatency;
      f.len_min = f.len_max = 1 + static_cast<std::uint32_t>(rng.below(2));
      f.inject = traffic::InjectKind::Bernoulli;
      // Mostly compliant senders; sometimes an abuser to exercise policing.
      f.inject_rate = rng.bernoulli(0.3) ? 0.1 + rng.uniform() * 0.3
                                         : 0.005 + rng.uniform() * 0.04;
      has_gl[f.dst] = true;
    }
    // A packet longer than its class buffer can never be admitted and
    // wedges the queue behind it forever (the conformance monitor rightly
    // reads that as starvation). Clamp: generated packets must fit.
    const std::uint32_t buf_cap =
        f.cls == TrafficClass::GuaranteedBandwidth
            ? s.buffers.gb_flits_per_output
            : f.cls == TrafficClass::GuaranteedLatency ? s.buffers.gl_flits
                                                       : s.buffers.be_flits;
    f.len_max = std::min(f.len_max, buf_cap);
    f.len_min = std::min(f.len_min, f.len_max);
    s.flows.push_back(f);
  }
  for (OutputId o = 0; o < s.radix; ++o) {
    // Usually reserve GL bandwidth where GL flows exist; occasionally leave
    // the tracker disabled (GL then rides its priority unpoliced).
    if (has_gl[o] && rng.bernoulli(0.85)) {
      s.gl_reservations.push_back(
          {o, 0.02 + static_cast<double>(rng.below(9)) / 100.0, 1});
    }
  }

  // ~1 in 5 scenarios carries a fault plan (checked invariants-only).
  if (rng.bernoulli(0.2)) {
    s.faults.seed = rng();
    if (rng.bernoulli(0.7)) {
      s.faults.bitflip_rate = 0.0001 + rng.uniform() * 0.003;
    }
    if (rng.bernoulli(0.4)) {
      s.faults.stuck_lanes.push_back(
          {static_cast<OutputId>(rng.below(s.radix)),
           static_cast<std::uint32_t>(rng.below(s.ssvc.gb_levels())),
           rng.bernoulli(0.5), rng.below(s.cycles / 2 + 1)});
    }
    if (rng.bernoulli(0.3)) {
      const Cycle at = rng.below(s.cycles / 2 + 1);
      s.faults.port_kills.push_back(
          {static_cast<InputId>(rng.below(s.radix)), at,
           rng.bernoulli(0.3) ? kNoCycle : at + 1 + rng.below(s.cycles / 2)});
    }
    if (rng.bernoulli(0.3)) {
      const Cycle at = rng.below(s.cycles / 2 + 1);
      s.faults.crosspoint_kills.push_back(
          {static_cast<InputId>(rng.below(s.radix)),
           static_cast<OutputId>(rng.below(s.radix)), at,
           rng.bernoulli(0.3) ? kNoCycle : at + 1 + rng.below(s.cycles / 2)});
    }
    if (s.has_faults() && rng.bernoulli(0.6)) {
      s.scrub_interval = 64 + rng.below(512);
    }
  }

  // ~1 in 4 scenarios swaps the arbiters for a matching engine (checked
  // invariants-only plus the progress guard). Sampled LAST so the draw
  // sequence — and thus every scenario generated before this knob existed —
  // is unchanged for the classic path.
  const std::uint64_t eng = rng.below(16);
  if (eng >= 12) {
    s.matching_engine = eng == 12   ? arb::MatchKind::Islip
                        : eng == 13 ? arb::MatchKind::Qps
                        : eng == 14 ? arb::MatchKind::SwQps
                                    : arb::MatchKind::Ssvc;
    s.match_iterations = 1 + static_cast<std::uint32_t>(rng.below(4));
    s.packet_chaining = false;  // engines bypass the arbiters chaining charges
  }
  return s;
}

Scenario parse_scenario(std::istream& in, const std::string& name) {
  Scenario s;
  bool seen_scenario = false;
  bool seen_radix = false;
  traffic::LineReader r(in, "scenario", name);
  while (r.next()) {
    const std::string& head = r.directive();
    if (head == "radix") {
      s.radix = r.radix();
      seen_radix = true;
      continue;
    }
    traffic::FieldMap f = r.parse_fields();

    if (head == "scenario") {
      seen_scenario = true;
      s.name = f.get("name").value_or(s.name);
      s.seed = f.integer("seed", s.seed);
      s.cycles = f.integer("cycles", s.cycles);
    } else if (head == "ssvc") {
      s.ssvc.level_bits = f.integer("level_bits", s.ssvc.level_bits);
      s.ssvc.lsb_bits = f.integer("lsb_bits", s.ssvc.lsb_bits);
      s.ssvc.vtick_bits = f.integer("vtick_bits", s.ssvc.vtick_bits);
      s.ssvc.vtick_shift = f.integer("vtick_shift", s.ssvc.vtick_shift);
      if (auto p = f.get("policy")) s.ssvc.policy = parse_policy(f, *p);
    } else if (head == "switch") {
      if (auto p = f.get("policing")) s.gl_policing = parse_policing(f, *p);
      s.gl_allowance = f.integer("allowance", s.gl_allowance);
      s.packet_chaining =
          f.integer<std::uint32_t>("chaining", s.packet_chaining) != 0;
      s.arbitration_cycles = f.integer("arb_cycles", s.arbitration_cycles);
    } else if (head == "match") {
      const std::string eng = f.require("engine");
      try {
        s.matching_engine = arb::parse_match_kind(eng);
      } catch (const ssq::ConfigError&) {
        f.fail("unknown engine '" + eng +
               "' (islip|qps|swqps|ssvc|starve|none)");
      }
      s.match_iterations = f.integer("iters", s.match_iterations);
    } else if (head == "gsf") {
      s.gsf.enabled = true;
      s.gsf.frame_cycles = f.integer("frame", s.gsf.frame_cycles);
      s.gsf.barrier_cycles = f.integer("barrier", s.gsf.barrier_cycles);
    } else if (head == "buffers") {
      s.buffers.be_flits = f.integer("be", s.buffers.be_flits);
      s.buffers.gb_flits_per_output =
          f.integer("gb", s.buffers.gb_flits_per_output);
      s.buffers.gl_flits = f.integer("gl", s.buffers.gl_flits);
    } else if (head == "flow") {
      if (!seen_radix) r.fail("'radix' must come before 'flow'");
      s.flows.push_back(traffic::read_flow(f));
    } else if (head == "glres") {
      s.gl_reservations.push_back(traffic::read_gl_reservation(f));
      if (s.gl_reservations.back().rate <= 0.0) {
        r.fail("glres needs rate > 0");
      }
    } else if (head == "fault") {
      s.faults.seed = f.integer("seed", s.faults.seed);
      s.faults.bitflip_rate = f.number("bitflip", s.faults.bitflip_rate);
    } else if (head == "fault_stuck") {
      s.faults.stuck_lanes.push_back({f.integer<OutputId>("output", 0),
                                      f.integer<std::uint32_t>("lane", 0),
                                      f.integer<std::uint32_t>("high", 1) != 0,
                                      f.integer<Cycle>("at", 0)});
    } else if (head == "fault_killport") {
      s.faults.port_kills.push_back({f.integer<InputId>("input", 0),
                                     f.integer<Cycle>("at", 0),
                                     f.integer("restore", kNoCycle)});
    } else if (head == "fault_killxp") {
      s.faults.crosspoint_kills.push_back(
          {f.integer<InputId>("input", 0), f.integer<OutputId>("output", 0),
           f.integer<Cycle>("at", 0), f.integer("restore", kNoCycle)});
    } else if (head == "scrub") {
      s.scrub_interval = f.integer<Cycle>("interval", 0);
      if (s.scrub_interval == 0) r.fail("scrub needs interval >= 1");
    } else {
      r.fail("unknown directive '" + head + "'");
    }
    f.done();
  }
  if (!seen_scenario) r.fail("missing 'scenario' line");
  if (!seen_radix) r.fail("missing 'radix' line");
  // Surface config errors with the file name attached.
  try {
    s.validate();
    (void)s.build_config();
    (void)s.build_workload();
  } catch (const ssq::ConfigError& e) {
    throw ssq::ConfigError("scenario '" + name + "': " + e.what());
  }
  return s;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ssq::ConfigError("cannot open scenario file '" + path + "'");
  }
  return parse_scenario(in, path);
}

void write_scenario(std::ostream& out, const Scenario& s) {
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "scenario name=" << s.name << " seed=" << s.seed
      << " cycles=" << s.cycles << "\n";
  out << "radix " << s.radix << "\n";
  out << "ssvc level_bits=" << s.ssvc.level_bits
      << " lsb_bits=" << s.ssvc.lsb_bits << " vtick_bits=" << s.ssvc.vtick_bits
      << " vtick_shift=" << s.ssvc.vtick_shift
      << " policy=" << core::to_string(s.ssvc.policy) << "\n";
  out << "switch policing=" << core::to_string(s.gl_policing)
      << " allowance=" << s.gl_allowance
      << " chaining=" << (s.packet_chaining ? 1 : 0)
      << " arb_cycles=" << s.arbitration_cycles << "\n";
  if (s.matching_engine != arb::MatchKind::None) {
    out << "match engine=" << arb::match_kind_name(s.matching_engine)
        << " iters=" << s.match_iterations << "\n";
  }
  if (s.gsf.enabled) {
    out << "gsf frame=" << s.gsf.frame_cycles
        << " barrier=" << s.gsf.barrier_cycles << "\n";
  }
  out << "buffers be=" << s.buffers.be_flits
      << " gb=" << s.buffers.gb_flits_per_output
      << " gl=" << s.buffers.gl_flits << "\n";
  for (const auto& fl : s.flows) traffic::write_flow(out, fl);
  for (const auto& g : s.gl_reservations) {
    traffic::write_gl_reservation(out, "glres", g);
  }
  if (s.has_faults()) {
    out << "fault seed=" << s.faults.seed;
    if (s.faults.bitflip_rate > 0.0) {
      out << " bitflip=" << s.faults.bitflip_rate;
    }
    out << "\n";
    for (const auto& sl : s.faults.stuck_lanes) {
      out << "fault_stuck output=" << sl.output << " lane=" << sl.lane
          << " high=" << (sl.stuck_high ? 1 : 0) << " at=" << sl.at << "\n";
    }
    for (const auto& pk : s.faults.port_kills) {
      out << "fault_killport input=" << pk.input << " at=" << pk.at;
      if (pk.restore_at != kNoCycle) out << " restore=" << pk.restore_at;
      out << "\n";
    }
    for (const auto& ck : s.faults.crosspoint_kills) {
      out << "fault_killxp input=" << ck.input << " output=" << ck.output
          << " at=" << ck.at;
      if (ck.restore_at != kNoCycle) out << " restore=" << ck.restore_at;
      out << "\n";
    }
  }
  if (s.scrub_interval != 0) {
    out << "scrub interval=" << s.scrub_interval << "\n";
  }
  out.precision(old_precision);
}

ScenarioRun instantiate(const Scenario& s) {
  s.validate();
  ScenarioRun run;
  run.sim = std::make_unique<sw::CrossbarSwitch>(s.build_config(),
                                                 s.build_workload());
  if (s.has_faults()) {
    run.injector = std::make_unique<fault::FaultInjector>(s.faults);
    run.sim->attach_fault_injector(run.injector.get());
  }
  if (s.scrub_interval != 0) {
    run.scrubber = std::make_unique<fault::StateScrubber>(s.scrub_interval);
    run.sim->attach_scrubber(run.scrubber.get());
  }
  return run;
}

namespace {

/// EngineStarve is a harness plant, not a reference defect: the starving
/// engine IS the bug. Swap it into the scenario and check clean — the
/// progress guard must call starvation. Repro files stay engine-honest and
/// shrink flows through this same transform.
void apply_engine_starve(Scenario& s, CheckOptions& opts) {
  if (opts.bug != PlantedBug::EngineStarve) return;
  s.matching_engine = arb::MatchKind::Starve;
  s.packet_chaining = false;
  opts.bug = PlantedBug::None;
}

}  // namespace

RunResult run_scenario(const Scenario& s, const CheckOptions& opts) {
  Scenario sc = s;
  CheckOptions o = opts;
  apply_engine_starve(sc, o);
  ScenarioRun rig = instantiate(sc);
  DifferentialChecker checker(*rig.sim, o);
  std::optional<obs::ConformanceConfig> monitor_cfg;
  if (o.monitor) {
    monitor_cfg = sw::make_conformance_config(
        rig.sim->config(), rig.sim->workload(), o.monitor_window);
    // Eq. (1) presumes the policer keeps GL arrivals inside the reserved
    // envelope — only Stall enforces that (and the monitor's stall-skip
    // removes the policer's own delays from the judged waits). GB share
    // under CounterPolicy::None is not judged either: unbounded counters
    // stop differentiating flows by design once they clamp.
    // A matching engine bypasses the QoS arbiters entirely, so the
    // GB-share and GL-latency guarantees the monitor judges do not apply.
    monitor_cfg->check_gl = sc.gl_policing == core::GlPolicing::Stall &&
                            sc.matching_engine == arb::MatchKind::None;
    monitor_cfg->check_gb = sc.ssvc.policy != core::CounterPolicy::None &&
                            sc.matching_engine == arb::MatchKind::None;
  }
  sw::IncidentRig incidents(o.flight_recorder, std::move(monitor_cfg));
  if (incidents.sink() != nullptr) {
    checker.probe().set_extra_sink(incidents.sink());
  }

  (void)checker.run(sc.cycles);

  RunResult result;
  result.grants_checked = checker.grants_checked();
  for (FlowId f = 0; f < rig.sim->workload().num_flows(); ++f) {
    result.delivered += rig.sim->delivered_packets(f);
  }
  if (obs::ConformanceMonitor* monitor = incidents.monitor()) {
    monitor->finalize(rig.sim->now());
    result.violations_gb = monitor->violations(obs::ViolationKind::GbShare);
    result.violations_gl = monitor->violations(obs::ViolationKind::GlLatency);
    result.violations_be =
        monitor->violations(obs::ViolationKind::BeStarvation);
    result.windows_checked = monitor->windows_total();
  }
  if (checker.divergence().has_value()) {
    const Divergence& d = *checker.divergence();
    result.failed = true;
    result.fail_cycle = d.cycle;
    result.output = d.output;
    result.kind = d.kind;
    result.detail = d.detail;
    incidents.divergence(d.kind, d.cycle);
  }
  result.flight_dump = incidents.snapshot();
  return result;
}

}  // namespace ssq::check
