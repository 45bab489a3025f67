// ssq_perf — the repository benchmark program (perf/README.md).
//
// Runs one named workload per process on one thread, as a closed loop: the
// next unit (a checked scenario, or a chunk of simulated cycles) starts when
// the previous one finishes, until --seconds of measured time have passed
// and the hashed prefix is complete. Only public calls of the layers are
// timed, from outside.
//
//   ssq_perf --workload=NAME [--seed=N] [--seconds=S] [--trace]
//            [--plant=BUG]
//
// Run it from the checkout root: the sim workload writes its input file
// under perf/out.
//
// The untraced run calls the real check::run_scenario (campaigns) or
// CrossbarSwitch::run (sim) and reports the end-to-end metrics. The traced
// run (--trace) rebuilds the same loop from the public calls, runs every
// unit once per checker tier / kernel, and reports the per-layer metrics;
// its results must equal the plain loop's, which it also runs, unit by unit.
//
// The last line of stdout is one JSON report: the prefix hash (the
// switch-observable outputs of the first units, pinned per seed in
// perf/expected.json), units attempted and failed, every metric with its
// unit, and the in-process checks that failed. Exit status: 0, or 2 on bad
// arguments; correctness is read from the report.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unistd.h>
#include <utility>
#include <vector>

#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "fault/injector.hpp"
#include "fault/scrubber.hpp"
#include "obs/conformance.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "qosmath/gl_bound.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "switch/crossbar.hpp"
#include "switch/observe.hpp"
#include "traffic/workload.hpp"
#include "traffic/workload_io.hpp"

namespace {

using namespace ssq;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// VmHWM of this process in MiB (0 where /proc is unavailable).
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// FNV-1a over the switch-observable outputs of the hashed prefix.
class Hash {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(v >> (8 * b)));
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Report {
  std::string hash;
  std::uint64_t prefix = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name), value, std::move(unit));
  }
  /// Records a failed in-process check (the first few are kept verbatim).
  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 16) errors.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  check::PlantedBug bug = check::PlantedBug::None;
};

constexpr const char* kWorkdir = "perf/out";

// ---------------------------------------------------------------------------
// Host-speed calibration. The shared host this benchmark was built on runs
// the same work up to 2x slower for minutes at a time (other guests), so
// raw host times of ten runs made minutes apart spread by 7-60 % (IQR). A
// probe of fixed, repository-independent work, timed between units,
// measures how fast the host is running; the gated times are scaled by
// kProbeReference / (median probe time), i.e. read as if on a quiet core.
// On this host that removed a third to two thirds of the spread (README).
// The probe is a dependent integer chain over an L1-resident table: pure
// core work, so the program's working set cannot slow it and flatter the
// scaled numbers.

/// The probe's median on a quiet core of the reference host (KVM guest,
/// Intel Xeon at 2.0 GHz).
constexpr double kProbeReference = 1.7e-3;
constexpr double kProbeEvery = 0.1;  // seconds of unit time between probes

class HostProbe {
 public:
  HostProbe() {
    Rng rng(0x9b0be);
    for (auto& t : table_) t = rng();
  }

  void sample() {
    const auto t0 = Clock::now();
    std::uint64_t acc = sink_ | 1;
    for (std::uint64_t k = 0; k < 600000; ++k) {
      acc = (acc ^ (acc >> 29)) * 0xff51afd7ed558ccdULL + table_[acc & 1023] +
            k;
    }
    sink_ = acc;  // keeps the chain live
    samples_.push_back(since(t0));
  }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  /// Host speed relative to the reference core (< 1 when running slow).
  [[nodiscard]] double speed() const {
    return kProbeReference / percentile(samples_, 0.5);
  }

 private:
  std::uint64_t table_[1024] = {};
  std::uint64_t sink_ = 0;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Metric sets. Every workload reports every metric of its mode; a layer a
// workload does not exercise reads 0 and is never a time.

struct EndToEnd {
  std::uint64_t units = 0;
  double busy_s = 0.0;  // sum of the unit times
  std::uint64_t cycles = 0;
  std::vector<double> unit_s;
  std::vector<double> setup_s;
  HostProbe probe;

  /// Records one unit, probing the host every kProbeEvery of unit time.
  void add_unit(double dt, Cycle unit_cycles) {
    if (busy_s >= kProbeEvery * static_cast<double>(probe.samples())) {
      probe.sample();
    }
    unit_s.push_back(dt);
    busy_s += dt;
    cycles += unit_cycles;
    ++units;
  }

  /// Host times scaled to the reference core (see HostProbe); the raw
  /// throughput and the scale factor are reported alongside.
  void emit(Report& r) const {
    const double speed = probe.speed();
    const double per_s = ratio(static_cast<double>(units), busy_s);
    r.metric("units_per_s", per_s / speed, "1/s");
    r.metric("unit_ms_p50", percentile(unit_s, 0.50) * speed * 1e3, "ms");
    r.metric("unit_ms_p90", percentile(unit_s, 0.90) * speed * 1e3, "ms");
    r.metric("unit_ms_p99", percentile(unit_s, 0.99) * speed * 1e3, "ms");
    r.metric("cycles_per_s",
             ratio(static_cast<double>(cycles), busy_s) / speed, "1/s");
    r.metric("setup_s", percentile(setup_s, 0.50) * speed, "s");
    r.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    r.metric("host_speed", speed, "ratio");
    r.metric("raw_units_per_s", per_s, "1/s");
  }
};

/// Counters read off one switch after its run.
struct SwitchCounts {
  std::uint64_t cycles = 0;
  std::uint64_t ff_skipped = 0;
  std::uint64_t ff_idle_stepped = 0;
  std::uint64_t arb_cycles = 0;
  std::uint64_t transfer_cycles = 0;
  std::uint64_t engine_cycles = 0;
  std::uint64_t engine_iterations = 0;
  std::uint64_t engine_matches = 0;
  std::uint64_t created = 0;
  std::uint64_t delivered = 0;

  SwitchCounts& operator+=(const SwitchCounts& o) {
    cycles += o.cycles;
    ff_skipped += o.ff_skipped;
    ff_idle_stepped += o.ff_idle_stepped;
    arb_cycles += o.arb_cycles;
    transfer_cycles += o.transfer_cycles;
    engine_cycles += o.engine_cycles;
    engine_iterations += o.engine_iterations;
    engine_matches += o.engine_matches;
    created += o.created;
    delivered += o.delivered;
    return *this;
  }
};

SwitchCounts counts_of(const sw::CrossbarSwitch& sim, Cycle cycles) {
  SwitchCounts c;
  c.cycles = cycles;
  c.ff_skipped = sim.ff_skipped_cycles();
  c.ff_idle_stepped = sim.ff_idle_stepped_cycles();
  for (OutputId o = 0; o < sim.config().radix; ++o) {
    c.arb_cycles += sim.channel_usage(o).arbitration_cycles;
    c.transfer_cycles += sim.channel_usage(o).transfer_cycles;
  }
  c.engine_cycles = sim.engine_stats().cycles;
  c.engine_iterations = sim.engine_stats().iterations;
  c.engine_matches = sim.engine_stats().matches;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    c.created += sim.created_packets(f);
    c.delivered += sim.delivered_packets(f);
  }
  return c;
}

/// Per-flow deliveries: every tier and kernel must reproduce them exactly.
std::vector<std::uint64_t> deliveries(const sw::CrossbarSwitch& sim) {
  std::vector<std::uint64_t> d;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    d.push_back(sim.delivered_packets(f));
  }
  return d;
}

struct Layers {
  // Shares of the traced default-path wall time (see README).
  double generate_share = 0, instantiate_share = 0, attach_share = 0;
  double invariants_share = 0, reference_share = 0, state_compare_share = 0;
  double circuit_share = 0, monitor_share = 0;
  double step_share = 0, ff_share = 0, warmup_share = 0, parse_share = 0;
  double step_ns = 0, construct_us = 0;
  double kernel_scalar = 0, kernel_bitsliced = 0, kernel_simd = 0;
  double trace_overhead = 0;
  // Counts over the hashed prefix (exact for a seed).
  SwitchCounts sw;
  std::uint64_t ff_calls = 0, ff_advanced = 0, step_calls = 0;
  std::uint64_t grants_checked = 0, windows = 0, faulted = 0;
  std::uint64_t prefix_units = 0, radix64 = 0, engine = 0;
  double radix64_time_share = 0;
  // Simulated outcomes of the sim workload's first episode.
  double gb_share_min = 0, gl_wait_max = 0, hotspot_flits = 0;

  void emit(Report& r) const {
    const auto units = static_cast<double>(prefix_units);
    const auto cycles = static_cast<double>(sw.cycles);
    r.metric("check.generate.share", generate_share, "fraction");
    r.metric("check.instantiate.share", instantiate_share, "fraction");
    r.metric("check.attach.share", attach_share, "fraction");
    r.metric("check.step.calls", static_cast<double>(step_calls), "count");
    r.metric("check.grants_checked", static_cast<double>(grants_checked),
             "count");
    r.metric("check.invariants.share", invariants_share, "fraction");
    r.metric("check.reference.share", reference_share, "fraction");
    r.metric("check.state_compare.share", state_compare_share, "fraction");
    r.metric("check.circuit.share", circuit_share, "fraction");
    r.metric("switch.step.ns", step_ns, "ns");
    r.metric("switch.step.share", step_share, "fraction");
    r.metric("switch.construct.us", construct_us, "us");
    r.metric("switch.warmup.share", warmup_share, "fraction");
    r.metric("switch.cycles", cycles, "count");
    r.metric("switch.delivered_packets", static_cast<double>(sw.delivered),
             "count");
    r.metric("switch.ff.calls", static_cast<double>(ff_calls), "count");
    r.metric("switch.ff.share", ff_share, "fraction");
    r.metric("switch.ff.advance_frac",
             ratio(static_cast<double>(ff_advanced),
                   static_cast<double>(ff_calls)),
             "fraction");
    r.metric("switch.ff.skipped_frac",
             ratio(static_cast<double>(sw.ff_skipped), cycles), "fraction");
    r.metric("switch.ff.idle_stepped_frac",
             ratio(static_cast<double>(sw.ff_idle_stepped), cycles),
             "fraction");
    r.metric("switch.gb_share_min", gb_share_min, "ratio");
    r.metric("switch.gl_wait_max_cycles", gl_wait_max, "cycles");
    r.metric("switch.hotspot_flits_per_cycle", hotspot_flits, "flits/cycle");
    r.metric("core.arb_cycles", static_cast<double>(sw.arb_cycles), "count");
    r.metric("core.transfer_cycles", static_cast<double>(sw.transfer_cycles),
             "count");
    r.metric("core.kernel.scalar.cycles_per_s", kernel_scalar, "1/s");
    r.metric("core.kernel.bitsliced.cycles_per_s", kernel_bitsliced, "1/s");
    r.metric("core.kernel.simd.cycles_per_s", kernel_simd, "1/s");
    r.metric("arb.engine.iters_per_cycle",
             ratio(static_cast<double>(sw.engine_iterations),
                   static_cast<double>(sw.engine_cycles)),
             "1/cycle");
    r.metric("arb.engine.matches_per_cycle",
             ratio(static_cast<double>(sw.engine_matches),
                   static_cast<double>(sw.engine_cycles)),
             "1/cycle");
    r.metric("obs.monitor.share", monitor_share, "fraction");
    r.metric("obs.monitor.windows", static_cast<double>(windows), "count");
    r.metric("traffic.parse.share", parse_share, "fraction");
    r.metric("traffic.created_packets", static_cast<double>(sw.created),
             "count");
    r.metric("fault.scenarios", static_cast<double>(faulted), "count");
    r.metric("mix.radix64.share", ratio(static_cast<double>(radix64), units),
             "fraction");
    r.metric("mix.radix64.time_share", radix64_time_share, "fraction");
    r.metric("mix.faulted.share", ratio(static_cast<double>(faulted), units),
             "fraction");
    r.metric("mix.engine.share", ratio(static_cast<double>(engine), units),
             "fraction");
    r.metric("trace.overhead", trace_overhead, "ratio");
  }
};

// ---------------------------------------------------------------------------
// Campaign workloads.

struct CampaignSpec {
  const char* name;
  bool sparse;   // ssq_fuzz --sparse derate
  bool engines;  // ssq_fuzz --engine override, i % 3 -> islip/qps/swqps
  bool monitor;  // ssq_fuzz --monitor
  std::uint64_t prefix;  // hashed scenarios
};

constexpr CampaignSpec kCampaigns[] = {
    {"campaign-default", false, false, false, 300},
    {"campaign-sparse-monitor", true, false, true, 150},
    {"campaign-engines", false, true, false, 600},
};

// Set-up: a warm-up round over a fixed scenario set (independent of --seed,
// so every run sets up the same work) lets lazy set-up and caches settle
// before the first timed scenario. Host speed drifts (see HostProbe), so
// one round at the start is a poor sample: the untraced run repeats the
// round kSetupRounds times, spread evenly over the measured time (outside
// the unit times), and reports the median.
constexpr std::uint64_t kWarmupSeed = 0;
constexpr std::uint64_t kWarmupScenarios = 16;
constexpr std::size_t kSetupRounds = 10;

check::Scenario make_scenario(const CampaignSpec& w, std::uint64_t index,
                              std::uint64_t seed) {
  check::Scenario s = check::generate_scenario(index, seed);
  if (w.sparse) {
    s.cycles *= 8;
    for (auto& f : s.flows) f.inject_rate *= 0.05;
  }
  if (w.engines) {
    constexpr arb::MatchKind kEngines[] = {
        arb::MatchKind::Islip, arb::MatchKind::Qps, arb::MatchKind::SwQps};
    s.matching_engine = kEngines[index % 3];
    s.packet_chaining = false;
  }
  return s;
}

check::CheckOptions options_for(const CampaignSpec& w, check::PlantedBug bug) {
  check::CheckOptions o;
  o.bug = bug;
  if (w.monitor) {
    o.monitor = true;
    o.flight_recorder = 256;
  }
  return o;
}

/// The ssq_fuzz verdict: a divergence, or a GB/GL violation in a fault-free
/// scenario.
bool scenario_failed(const check::Scenario& s, const check::RunResult& r) {
  return r.failed ||
         (!s.has_faults() && r.violations_gb + r.violations_gl > 0);
}

void hash_result(Hash& h, const check::RunResult& r, bool failed) {
  h.add(static_cast<std::uint64_t>(failed));
  h.add(r.kind);
  h.add(static_cast<std::uint64_t>(r.fail_cycle));
  h.add(r.delivered);
  h.add(r.grants_checked);
  h.add(r.violations_gb + r.violations_gl + r.violations_be);
  h.add(r.windows_checked);
}

bool same_result(const check::RunResult& a, const check::RunResult& b) {
  return a.failed == b.failed && a.fail_cycle == b.fail_cycle &&
         a.output == b.output && a.kind == b.kind && a.detail == b.detail &&
         a.grants_checked == b.grants_checked && a.delivered == b.delivered &&
         a.violations_gb == b.violations_gb &&
         a.violations_gl == b.violations_gl &&
         a.violations_be == b.violations_be &&
         a.windows_checked == b.windows_checked &&
         a.flight_dump == b.flight_dump;
}

double campaign_setup(const CampaignSpec& w, const check::CheckOptions& opts) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kWarmupScenarios; ++i) {
    (void)check::run_scenario(make_scenario(w, i, kWarmupSeed), opts);
  }
  return since(t0);
}

void run_campaign(const CampaignSpec& w, const Options& opt, Report& rep) {
  const check::CheckOptions opts = options_for(w, opt.bug);
  EndToEnd e2e;
  e2e.setup_s.push_back(campaign_setup(w, opts));
  Hash hash;
  for (std::uint64_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    check::Scenario s;
    check::RunResult r;
    bool failed = false;
    try {
      s = make_scenario(w, i, opt.seed);
      r = check::run_scenario(s, opts);
      failed = scenario_failed(s, r);
    } catch (const std::exception& e) {
      failed = true;
      r.kind = std::string("exception: ") + e.what();
    }
    const double dt = since(t0);
    e2e.add_unit(dt, s.cycles);
    if (failed) {
      ++rep.failed;
      rep.check(false, s.name + ": " + r.kind);
    }
    if (i < w.prefix) hash_result(hash, r, failed);
    if (e2e.busy_s >= opt.seconds && i + 1 >= w.prefix) break;
    if (e2e.setup_s.size() < kSetupRounds &&
        e2e.busy_s >= opt.seconds * static_cast<double>(e2e.setup_s.size()) /
                          static_cast<double>(kSetupRounds)) {
      e2e.setup_s.push_back(campaign_setup(w, opts));
    }
  }
  rep.attempted = e2e.units;
  rep.prefix = w.prefix;
  rep.hash = hash.hex();
  e2e.emit(rep);
}

// --- traced campaign: the loop rebuilt from public calls -------------------

struct LoopStats {
  double construct_s = 0, instantiate_s = 0, attach_s = 0;
  double loop_s = 0, ff_s = 0, total_s = 0;
  std::uint64_t ff_calls = 0, ff_advanced = 0, step_calls = 0;
};

/// The check::run_scenario cycle loop (fast-forward over quiescent
/// stretches, otherwise step), with the fast-forward calls timed. `step`
/// returns false to stop; `may_jump` gates a fast-forward and `jumped` is
/// told about every one that moved the clock.
template <class Step, class MayJump, class Jumped>
void drive(sw::CrossbarSwitch& sim, Cycle end, LoopStats& st, Step step,
           MayJump may_jump, Jumped jumped) {
  const auto t0 = Clock::now();
  while (sim.now() < end) {
    if (may_jump() && sim.fast_forward_eligible() && sim.quiescent()) {
      const Cycle from = sim.now();
      const auto f0 = Clock::now();
      sim.fast_forward(end);
      st.ff_s += since(f0);
      ++st.ff_calls;
      if (sim.now() > from) {
        ++st.ff_advanced;
        jumped();
      }
      if (sim.now() >= end) break;
    }
    ++st.step_calls;
    if (!step()) break;
  }
  st.loop_s += since(t0);
}

struct PassResult {
  LoopStats st;
  check::RunResult result;
  SwitchCounts counts;
  std::vector<std::uint64_t> delivered;
};

/// The bare switch: no probe, no checker; faults and scrubbing as the
/// scenario prescribes (they change what is delivered).
PassResult run_bare(const check::Scenario& s, core::ArbKernel kernel) {
  const auto t0 = Clock::now();
  PassResult out;
  s.validate();
  sw::SwitchConfig config = s.build_config();
  config.kernel = kernel;
  traffic::Workload workload = s.build_workload();
  std::optional<fault::FaultInjector> injector;
  std::optional<fault::StateScrubber> scrubber;
  const auto c0 = Clock::now();
  sw::CrossbarSwitch sim(config, std::move(workload));
  out.st.construct_s = since(c0);
  if (s.has_faults()) {
    injector.emplace(s.faults);
    sim.attach_fault_injector(&*injector);
  }
  if (s.scrub_interval != 0) {
    scrubber.emplace(s.scrub_interval);
    sim.attach_scrubber(&*scrubber);
  }
  drive(
      sim, sim.now() + s.cycles, out.st,
      [&] {
        sim.step();
        return true;
      },
      [] { return true; }, [] {});
  out.counts = counts_of(sim, s.cycles);
  out.delivered = deliveries(sim);
  out.st.total_s = since(t0);
  return out;
}

/// One checker tier: check::instantiate, the DifferentialChecker (plus the
/// monitor and flight recorder run_scenario wires when asked), the loop,
/// and run_scenario's result assembly. With the workload's own options it
/// reproduces check::run_scenario exactly.
PassResult run_tier(const check::Scenario& s, const check::CheckOptions& opts) {
  const auto t0 = Clock::now();
  PassResult out;
  check::RunResult& result = out.result;
  check::ScenarioRun rig = check::instantiate(s);
  out.st.instantiate_s = since(t0);
  sw::CrossbarSwitch& sim = *rig.sim;

  const auto a0 = Clock::now();
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::ConformanceMonitor> monitor;
  obs::TeeSink tee;
  check::DifferentialChecker checker(sim, opts);
  if (opts.flight_recorder > 0) {
    recorder = std::make_unique<obs::FlightRecorder>(opts.flight_recorder);
    tee.add(recorder.get());
  }
  if (opts.monitor) {
    obs::ConformanceConfig cfg = sw::make_conformance_config(
        sim.config(), sim.workload(), opts.monitor_window);
    cfg.check_gl = s.gl_policing == core::GlPolicing::Stall &&
                   s.matching_engine == arb::MatchKind::None;
    cfg.check_gb = s.ssvc.policy != core::CounterPolicy::None &&
                   s.matching_engine == arb::MatchKind::None;
    monitor = std::make_unique<obs::ConformanceMonitor>(std::move(cfg));
    if (recorder != nullptr) {
      obs::FlightRecorder* rec = recorder.get();
      monitor->set_on_violation([rec, &result](const obs::Violation& v) {
        if (result.flight_dump.empty()) {
          result.flight_dump = rec->dump_string(
              "violation:" + std::string(obs::to_string(v.kind)), v.cycle);
        }
      });
      monitor->set_on_fault([rec, &result](const obs::Event& e) {
        if (result.flight_dump.empty()) {
          result.flight_dump = rec->dump_string("fault", e.cycle);
        }
      });
    }
    tee.add(monitor.get());
  }
  if (tee.size() > 0) checker.probe().set_extra_sink(&tee);
  out.st.attach_s = since(a0);

  drive(
      sim, sim.now() + s.cycles, out.st, [&] { return checker.step(); },
      [&] { return !checker.divergence().has_value(); },
      [&] { checker.on_fast_forward(); });

  result.grants_checked = checker.grants_checked();
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    result.delivered += sim.delivered_packets(f);
  }
  if (monitor != nullptr) {
    monitor->finalize(sim.now());
    result.violations_gb = monitor->violations(obs::ViolationKind::GbShare);
    result.violations_gl = monitor->violations(obs::ViolationKind::GlLatency);
    result.violations_be =
        monitor->violations(obs::ViolationKind::BeStarvation);
    result.windows_checked = monitor->windows_total();
  }
  if (checker.divergence().has_value()) {
    const check::Divergence& d = *checker.divergence();
    result.failed = true;
    result.fail_cycle = d.cycle;
    result.output = d.output;
    result.kind = d.kind;
    result.detail = d.detail;
    if (recorder != nullptr) {
      result.flight_dump =
          recorder->dump_string("divergence:" + d.kind, d.cycle);
    }
  }
  out.delivered = deliveries(sim);
  out.st.total_s = since(t0);
  return out;
}

// Passes of one traced scenario. The checker tiers add one leg each:
// invariants-only, + reference model, + deep state compare, + circuit
// (= the default CheckOptions), + monitor where the workload has one.
enum Pass : int {
  kPlain,
  kBareScalar,
  kBareBitsliced,
  kBareSimd,
  kInvariants,
  kReference,
  kStateCompare,
  kCircuit,
  kMonitor,
  kPasses
};

struct PassTotals {
  double total_s = 0, construct_s = 0, instantiate_s = 0, attach_s = 0;
  double loop_s = 0, ff_s = 0;
  std::uint64_t steps = 0;

  void add(const LoopStats& st) {
    total_s += st.total_s;
    construct_s += st.construct_s;
    instantiate_s += st.instantiate_s;
    attach_s += st.attach_s;
    loop_s += st.loop_s;
    ff_s += st.ff_s;
    steps += st.step_calls;
  }
};

void trace_campaign(const CampaignSpec& w, const Options& opt, Report& rep) {
  const check::CheckOptions opts = options_for(w, opt.bug);
  (void)campaign_setup(w, opts);

  check::CheckOptions tier[kPasses] = {};
  tier[kInvariants] = opts;
  tier[kInvariants].differential = false;
  tier[kReference] = opts;
  tier[kReference].circuit = false;
  tier[kReference].state_compare = false;
  tier[kStateCompare] = opts;
  tier[kStateCompare].circuit = false;
  tier[kCircuit] = opts;
  tier[kCircuit].monitor = false;
  tier[kCircuit].flight_recorder = 0;
  tier[kMonitor] = opts;
  const int last = w.monitor ? kMonitor : kCircuit;
  const int passes = last + 1;

  PassTotals tot[kPasses];
  double generate_s = 0.0;
  double radix64_s = 0.0;
  std::uint64_t scenarios = 0;  // completed without an exception
  Layers lay;
  Hash hash;
  double busy = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const auto g0 = Clock::now();
    const check::Scenario s = make_scenario(w, i, opt.seed);
    const double gen = since(g0);
    generate_s += gen;
    busy += gen;

    PassResult res[kPasses];
    double plain_s = 0.0;
    try {
      for (int k = 0; k < passes; ++k) {
        const int p = static_cast<int>((i + static_cast<std::uint64_t>(k)) %
                                       static_cast<std::uint64_t>(passes));
        if (p == kPlain) {
          const auto t0 = Clock::now();
          res[p].result = check::run_scenario(s, opts);
          plain_s = since(t0);
          res[p].st.total_s = plain_s;
        } else if (p <= kBareSimd) {
          constexpr core::ArbKernel kKernels[] = {core::ArbKernel::Scalar,
                                                  core::ArbKernel::Bitsliced,
                                                  core::ArbKernel::Simd};
          res[p] = run_bare(s, kKernels[p - kBareScalar]);
        } else {
          res[p] = run_tier(s, tier[p]);
        }
        tot[p].add(res[p].st);
        busy += res[p].st.total_s;
      }
    } catch (const std::exception& e) {
      ++rep.attempted;
      ++rep.failed;
      rep.check(false, s.name + ": exception: " + e.what());
      if (i < w.prefix) hash.add(std::string_view(e.what()));
      if (busy >= opt.seconds && i + 1 >= w.prefix) break;
      continue;
    }
    ++scenarios;
    if (s.radix == 64) radix64_s += gen + plain_s;

    const check::RunResult& r = res[last].result;
    const bool failed = scenario_failed(s, r);
    if (failed) {
      ++rep.failed;
      rep.check(false, s.name + ": " + r.kind);
    }
    rep.check(same_result(r, res[kPlain].result),
              s.name + ": traced loop result differs from run_scenario");
    for (int p = kBareScalar; p < passes; ++p) {
      if (p >= kInvariants && res[p].result.failed) continue;
      rep.check(res[p].delivered == res[kBareBitsliced].delivered,
                s.name + ": pass " + std::to_string(p) +
                    " delivered different packets");
    }
    if (i < w.prefix) {
      hash_result(hash, r, failed);
      lay.sw += res[kBareBitsliced].counts;
      lay.ff_calls += res[last].st.ff_calls;
      lay.ff_advanced += res[last].st.ff_advanced;
      lay.step_calls += res[last].st.step_calls;
      lay.grants_checked += r.grants_checked;
      lay.windows += r.windows_checked;
      if (s.has_faults()) ++lay.faulted;
      if (s.radix == 64) ++lay.radix64;
      if (s.matching_engine != arb::MatchKind::None) ++lay.engine;
      ++lay.prefix_units;
    }
    ++rep.attempted;
    if (busy >= opt.seconds && i + 1 >= w.prefix) break;
  }

  const PassTotals& bare = tot[kBareBitsliced];
  const PassTotals& full = tot[last];
  const double wall = generate_s + full.total_s;
  lay.generate_share = generate_s / wall;
  lay.instantiate_share = full.instantiate_s / wall;
  lay.attach_share = full.attach_s / wall;
  lay.ff_share = bare.ff_s / wall;
  lay.step_share = (bare.loop_s - bare.ff_s) / wall;
  lay.invariants_share = (tot[kInvariants].loop_s - bare.loop_s) / wall;
  lay.reference_share =
      (tot[kReference].loop_s - tot[kInvariants].loop_s) / wall;
  lay.state_compare_share =
      (tot[kStateCompare].loop_s - tot[kReference].loop_s) / wall;
  lay.circuit_share =
      (tot[kCircuit].loop_s - tot[kStateCompare].loop_s) / wall;
  if (w.monitor) {
    lay.monitor_share = (tot[kMonitor].loop_s - tot[kCircuit].loop_s) / wall;
  }
  lay.step_ns =
      ratio(bare.loop_s - bare.ff_s, static_cast<double>(bare.steps)) * 1e9;
  double construct_s = 0.0;
  for (int p = kBareScalar; p <= kBareSimd; ++p) {
    construct_s += tot[p].construct_s;
  }
  lay.construct_us =
      ratio(construct_s, 3.0 * static_cast<double>(scenarios)) * 1e6;
  const auto kernel_rate = [&](int p) {
    return ratio(static_cast<double>(tot[p].steps),
                 tot[p].loop_s - tot[p].ff_s);
  };
  lay.kernel_scalar = kernel_rate(kBareScalar);
  lay.kernel_bitsliced = kernel_rate(kBareBitsliced);
  lay.kernel_simd = kernel_rate(kBareSimd);
  lay.radix64_time_share = radix64_s / (generate_s + tot[kPlain].total_s);
  lay.trace_overhead = wall / (generate_s + tot[kPlain].total_s) - 1.0;
  rep.prefix = w.prefix;
  rep.hash = hash.hex();
  lay.emit(rep);
}

// ---------------------------------------------------------------------------
// sim-radix64-hotspot: the ssq_sim path on the paper's radix-64
// configuration (bench/radix64_scale), no probe, no checker.

constexpr std::uint32_t kRadix = 64;
constexpr std::uint32_t kGbSenders = 32;
constexpr std::uint32_t kGlSenders = 4;
constexpr Cycle kWarmupCycles = 50000;
constexpr Cycle kChunkCycles = 5000;
// An episode is a fresh switch: set-up (generate, write, parse, construct,
// warm up) and then kEpisodeChunks measured chunks. The hotspot's source
// queues grow while it is overloaded, so bounding the episode keeps memory
// independent of how many cycles a run gets through.
constexpr std::uint64_t kEpisodeChunks = 100;
constexpr std::uint64_t kSimPrefix = kEpisodeChunks;  // hash episode 0

double gb_reserved(InputId i) { return i < 4 ? 0.08 : 0.02; }

/// Channel share a backlogged GB flow is entitled to: its reservation
/// derated by the 1-cycle arbitration per 8-flit packet.
double gb_entitled(InputId i) { return gb_reserved(i) * 8.0 / 9.0; }

/// The hotspot workload for episode `episode` of seed `seed`: 32 GB senders
/// on output 0 offering 1.25x their entitlement, 4 GL senders sharing a 6 %
/// reservation there, and best-effort background at 0.3 from every other
/// input to a seed-drawn permutation of the other outputs.
traffic::Workload hotspot_workload(std::uint64_t seed, std::uint64_t episode) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + episode);
  traffic::Workload w(kRadix);
  for (InputId i = 0; i < kGbSenders; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedBandwidth;
    f.reserved_rate = gb_reserved(i);
    f.len_min = f.len_max = 8;
    f.inject_rate = 1.25 * gb_entitled(i);
    w.add_flow(f);
  }
  for (InputId i = kGbSenders; i < kGbSenders + kGlSenders; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedLatency;
    f.len_min = f.len_max = 2;
    f.inject_rate = 0.004;
    w.add_flow(f);
  }
  w.set_gl_reservation(0, 0.06, 2);
  std::vector<OutputId> outs;
  for (OutputId o = 1; o < kRadix; ++o) outs.push_back(o);
  for (std::size_t k = outs.size() - 1; k > 0; --k) {
    std::swap(outs[k], outs[rng.below(k + 1)]);
  }
  for (InputId i = kGbSenders + kGlSenders; i < kRadix; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = outs[i - kGbSenders - kGlSenders];
    f.len_min = f.len_max = 8;
    f.inject_rate = 0.3;
    w.add_flow(f);
  }
  return w;
}

sw::SwitchConfig hotspot_config(std::uint64_t seed, std::uint64_t episode,
                                core::ArbKernel kernel) {
  sw::SwitchConfig c;
  c.radix = kRadix;
  c.ssvc.level_bits = 2;  // 4 GB lanes: the 512-bit-bus radix-64 point
  c.ssvc.lsb_bits = 8;
  c.ssvc.vtick_bits = 8;
  c.ssvc.vtick_shift = 2;
  c.buffers.gl_flits = 4;
  c.kernel = kernel;
  c.seed = Rng(seed ^ (0xDAC2014ULL + episode))();
  return c;
}

/// Writes the episode's workload as a text file and reads it back, the way
/// ssq_sim loads its input. Returns the parsed workload.
traffic::Workload write_and_load(const Options& opt, std::uint64_t episode,
                                 double& generate_s, double& parse_s) {
  const auto g0 = Clock::now();
  const std::string path = std::string(kWorkdir) + "/radix64-hotspot-" +
                           std::to_string(::getpid()) + ".workload";
  {
    std::ofstream os(path);
    traffic::write_workload(os, hotspot_workload(opt.seed, episode));
    if (!os) throw ConfigError("cannot write '" + path + "'");
  }
  generate_s = since(g0);
  const auto p0 = Clock::now();
  traffic::Workload w = traffic::load_workload(path);
  parse_s = since(p0);
  std::filesystem::remove(path);
  return w;
}

struct EpisodeOutcome {
  double gb_share_min = 0, gl_wait_max = 0, hotspot_flits = 0;
};

/// Simulated outcomes of a closed measurement window, plus the hash of the
/// per-flow deliveries and waits.
EpisodeOutcome outcome_of(const sw::CrossbarSwitch& sim, Hash* hash) {
  EpisodeOutcome o;
  o.gb_share_min = 1e9;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    const traffic::FlowSpec& spec = sim.workload().flow(f);
    const double rate = sim.throughput().rate(f);
    if (spec.cls == TrafficClass::GuaranteedBandwidth) {
      o.gb_share_min = std::min(o.gb_share_min, rate / gb_entitled(spec.src));
    }
    if (spec.cls == TrafficClass::GuaranteedLatency) {
      o.gl_wait_max = std::max(o.gl_wait_max, sim.wait().flow_summary(f).max());
    }
    if (spec.dst == 0) o.hotspot_flits += rate;
    if (hash != nullptr) {
      hash->add(sim.delivered_packets(f));
      hash->add(sim.created_packets(f));
      hash->add(sim.throughput().flits(f));
      hash->add(sim.wait().flow_summary(f).count());
      hash->add(sim.wait().flow_summary(f).sum());
      hash->add(sim.wait().flow_summary(f).max());
    }
  }
  return o;
}

/// The paper's claims, checked on every complete episode: GB flows keep
/// their derated reservation (within 2 %), GL waits stay under Eq. (1), and
/// the hotspot never beats the 8/9 channel ceiling.
void check_outcome(const EpisodeOutcome& o, std::uint64_t episode,
                   Report& rep) {
  const double bound = qosmath::gl_wait_bound(
      {.l_max = 8, .l_min = 2, .n_gl = kGlSenders, .buffer_flits = 4});
  const std::string ep = "episode " + std::to_string(episode) + ": ";
  rep.check(o.gb_share_min >= 0.98,
            ep + "GB share " + std::to_string(o.gb_share_min) + " < 0.98");
  rep.check(o.gl_wait_max <= bound, ep + "GL wait " +
                                        std::to_string(o.gl_wait_max) +
                                        " above the Eq. (1) bound");
  rep.check(o.hotspot_flits <= 8.0 / 9.0 + 1e-9,
            ep + "hotspot above the 8/9 ceiling");
}

void run_sim(const Options& opt, Report& rep) {
  EndToEnd e2e;
  Hash hash;
  bool done = false;
  for (std::uint64_t ep = 0; !done; ++ep) {
    const auto s0 = Clock::now();
    double generate_s = 0, parse_s = 0;
    traffic::Workload w = write_and_load(opt, ep, generate_s, parse_s);
    sw::CrossbarSwitch sim(
        hotspot_config(opt.seed, ep, core::ArbKernel::Bitsliced), std::move(w));
    sim.warmup(kWarmupCycles);
    e2e.setup_s.push_back(since(s0));

    std::uint64_t chunks = 0;
    while (chunks < kEpisodeChunks) {
      const auto t0 = Clock::now();
      sim.run(kChunkCycles);
      const double dt = since(t0);
      e2e.add_unit(dt, kChunkCycles);
      ++chunks;
      if (e2e.busy_s >= opt.seconds && e2e.units >= kSimPrefix) {
        done = true;
        break;
      }
    }
    sim.measure(0);
    if (chunks == kEpisodeChunks) {
      check_outcome(outcome_of(sim, ep == 0 ? &hash : nullptr), ep, rep);
    }
  }
  rep.attempted = e2e.units;
  rep.prefix = kSimPrefix;
  rep.hash = hash.hex();
  e2e.emit(rep);
}

/// Traced sim: every episode runs four switches in lock-step, chunk by
/// chunk with the order rotating: the plain CrossbarSwitch::run loop, and
/// the rebuilt loop once per arbitration kernel. All four must deliver the
/// same packets; the bit-sliced one (the default) is the traced path.
void trace_sim(const Options& opt, Report& rep) {
  constexpr core::ArbKernel kKernels[] = {core::ArbKernel::Bitsliced,
                                          core::ArbKernel::Bitsliced,
                                          core::ArbKernel::Scalar,
                                          core::ArbKernel::Simd};
  constexpr int kInstances = 4;  // [0] plain, [1] bitsliced, [2..3] others
  double generate_s = 0, parse_s = 0, busy = 0;
  double construct_s[kInstances] = {}, warmup_s[kInstances] = {};
  double chunk_s[kInstances] = {};
  std::uint64_t constructs = 0, chunk_cycles = 0;
  Layers lay;
  Hash hash;
  bool done = false;
  for (std::uint64_t ep = 0; !done; ++ep) {
    double gen = 0, parse = 0;
    const traffic::Workload w = write_and_load(opt, ep, gen, parse);
    generate_s += gen;
    parse_s += parse;
    busy += gen + parse;
    std::vector<std::unique_ptr<sw::CrossbarSwitch>> sims;
    for (int k = 0; k < kInstances; ++k) {
      const auto c0 = Clock::now();
      sims.push_back(std::make_unique<sw::CrossbarSwitch>(
          hotspot_config(opt.seed, ep, kKernels[k]), w));
      construct_s[k] += since(c0);
      ++constructs;
      const auto w0 = Clock::now();
      sims.back()->warmup(kWarmupCycles);
      warmup_s[k] += since(w0);
      busy += since(c0);
    }
    std::uint64_t chunks = 0;
    while (chunks < kEpisodeChunks) {
      for (int j = 0; j < kInstances; ++j) {
        const int k =
            static_cast<int>((chunks + static_cast<std::uint64_t>(j)) %
                             static_cast<std::uint64_t>(kInstances));
        sw::CrossbarSwitch& sim = *sims[static_cast<std::size_t>(k)];
        const auto t0 = Clock::now();
        if (k == 0) {
          sim.run(kChunkCycles);
        } else {
          LoopStats st;
          drive(
              sim, sim.now() + kChunkCycles, st,
              [&] {
                sim.step();
                return true;
              },
              [] { return true; }, [] {});
          if (k == 1 && ep == 0) lay.ff_calls += st.ff_calls;
        }
        const double dt = since(t0);
        chunk_s[k] += dt;
        busy += dt;
      }
      chunk_cycles += kChunkCycles;
      ++chunks;
      ++rep.attempted;
      if (busy >= opt.seconds && rep.attempted >= kSimPrefix) {
        done = true;
        break;
      }
    }
    for (auto& sim : sims) sim->measure(0);
    for (int k = 1; k < kInstances; ++k) {
      rep.check(deliveries(*sims[static_cast<std::size_t>(k)]) ==
                    deliveries(*sims[0]),
                "episode " + std::to_string(ep) + ": instance " +
                    std::to_string(k) + " delivered different packets");
    }
    if (ep == 0) {
      const EpisodeOutcome o = outcome_of(*sims[1], &hash);
      lay.gb_share_min = o.gb_share_min;
      lay.gl_wait_max = o.gl_wait_max;
      lay.hotspot_flits = o.hotspot_flits;
      lay.sw = counts_of(*sims[1], kEpisodeChunks * kChunkCycles);
      lay.prefix_units = kSimPrefix;
    }
    if (chunks == kEpisodeChunks) {
      check_outcome(outcome_of(*sims[1], nullptr), ep, rep);
    }
  }
  const double wall = generate_s + parse_s + construct_s[1] + warmup_s[1] +
                      chunk_s[1];
  lay.step_share = chunk_s[1] / wall;
  lay.warmup_share = warmup_s[1] / wall;
  lay.parse_share = parse_s / wall;
  lay.step_ns = chunk_s[1] / static_cast<double>(chunk_cycles) * 1e9;
  double all_constructs = 0;
  for (const double c : construct_s) all_constructs += c;
  lay.construct_us = all_constructs / static_cast<double>(constructs) * 1e6;
  const auto cycles = static_cast<double>(chunk_cycles);
  lay.kernel_bitsliced = cycles / chunk_s[1];
  lay.kernel_scalar = cycles / chunk_s[2];
  lay.kernel_simd = cycles / chunk_s[3];
  lay.trace_overhead = chunk_s[1] / chunk_s[0] - 1.0;
  rep.prefix = kSimPrefix;
  rep.hash = hash.hex();
  lay.emit(rep);
}

// ---------------------------------------------------------------------------

void print_report(const Options& opt, const Report& rep) {
  std::string out = "{\"workload\":" + obs::json_quote(opt.workload) +
                    ",\"seed\":" + std::to_string(opt.seed) +
                    ",\"trace\":" + (opt.trace ? "true" : "false") +
                    ",\"hash\":" + obs::json_quote(rep.hash) +
                    ",\"prefix\":" + std::to_string(rep.prefix) +
                    ",\"attempted\":" + std::to_string(rep.attempted) +
                    ",\"failed\":" + std::to_string(rep.failed) +
                    ",\"errors\":[";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    if (i) out += ',';
    out += obs::json_quote(rep.errors[i]);
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, value, unit] = rep.metrics[i];
    if (i) out += ',';
    out += obs::json_quote(name) + ":{\"value\":" + obs::json_number(value) +
           ",\"unit\":" + obs::json_quote(unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

std::optional<std::string> opt_value(std::string_view arg,
                                     std::string_view key) {
  if (arg.substr(0, key.size()) != key || arg.size() <= key.size() ||
      arg[key.size()] != '=') {
    return std::nullopt;
  }
  return std::string(arg.substr(key.size() + 1));
}

check::PlantedBug parse_bug(const std::string& v) {
  for (const auto b :
       {check::PlantedBug::GbVtickOffByOne, check::PlantedBug::LrgNoMoveToBack,
        check::PlantedBug::GlAllowanceOffByOne,
        check::PlantedBug::SkipEpochWrap}) {
    if (v == check::to_string(b)) return b;
  }
  throw ConfigError("unknown --plant bug '" + v + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (auto v = opt_value(arg, "--workload")) {
        opt.workload = *v;
      } else if (auto v2 = opt_value(arg, "--seed")) {
        opt.seed = std::stoull(*v2);
      } else if (auto v3 = opt_value(arg, "--seconds")) {
        opt.seconds = std::stod(*v3);
      } else if (arg == "--trace") {
        opt.trace = true;
      } else if (auto v4 = opt_value(arg, "--plant")) {
        opt.bug = parse_bug(*v4);
      } else {
        throw ConfigError("unknown option '" + std::string(arg) + "'");
      }
    }
    const CampaignSpec* campaign = nullptr;
    for (const CampaignSpec& c : kCampaigns) {
      if (opt.workload == c.name) campaign = &c;
    }
    if (campaign == nullptr && opt.workload != "sim-radix64-hotspot") {
      throw ConfigError("unknown --workload '" + opt.workload + "'");
    }
    if (campaign == nullptr && opt.bug != check::PlantedBug::None) {
      throw ConfigError("--plant applies to the campaign workloads");
    }
    std::filesystem::create_directories(kWorkdir);
    Report rep;
    if (campaign != nullptr && opt.trace) {
      trace_campaign(*campaign, opt, rep);
    } else if (campaign != nullptr) {
      run_campaign(*campaign, opt, rep);
    } else if (opt.trace) {
      trace_sim(opt, rep);
    } else {
      run_sim(opt, rep);
    }
    print_report(opt, rep);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ssq_perf: " << e.what() << "\n";
    return 2;
  }
}
