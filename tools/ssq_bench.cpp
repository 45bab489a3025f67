// ssq_bench — consolidated hot-path performance harness.
//
// One binary measures everything the perf-regression gate needs and writes
// it to BENCH_hotpath.json (same ssq.bench.v1 schema as the bench/
// binaries):
//   * steady-state switch throughput (cycles/sec and ns/step) at radix
//     8/16/32/64 on a hotspot + best-effort workload,
//   * the radix-64 point again with a probe + QoS conformance monitor
//     attached (the --monitor stepping cost),
//   * a sparse (sub-10%-load, periodic-injection) radix-64 sweep with
//     idle-cycle fast-forward on and off, and the same sweep again with the
//     full fault stack (bitflips + stuck lane + outage + scrubber) attached
//     and fast-forward on — the event-horizon point,
//   * heap allocations per step at radix 64 (counted by the ssq_alloc_hook
//     operator-new interposer; the zero-allocation claim, measured),
//   * iSLIP matching throughput on the stability-lab cell model (radix 64,
//     0.9 uniform load) — the hot loop behind bench/stability_lab,
//   * fuzz-campaign scenario throughput at 1 thread (plain and with the
//     QoS conformance monitor attached to every scenario) and at --jobs
//     threads (the parallel point is skipped honestly on single-CPU hosts),
//   * the same serial campaign run through the ssq_campaign shard runner,
//     one unit at a time with its fsync'd checkpoint journal attached —
//     the per-scenario cost of crash-safe resume (docs/CAMPAIGN.md), gated
//     like any throughput.
//
// `--check[=PATH]` re-reads a committed baseline report and fails (exit 1)
// if any throughput metric regressed by more than --tolerance (default
// 0.25) or the per-step allocation count grew. When the baseline was
// recorded on a different host (see the report's "host" block: cpu count,
// compiler, flags, build type), throughput regressions are demoted to
// warnings — timing comparisons across machines are not apples-to-apples —
// while allocation growth still fails. `--write-baseline` refreshes the
// committed file. docs/PERFORMANCE.md describes the workflow.
//
// Exit codes: 0 ok, 1 regression vs baseline, 2 bad usage/config.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include <filesystem>

#include "arb/matching.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "check/stability.hpp"
#include "exec/thread_pool.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scrubber.hpp"
#include "obs/conformance.hpp"
#include "obs/json.hpp"
#include "obs/probe.hpp"
#include "sim/alloc_hook.hpp"
#include "sim/error.hpp"
#include "switch/crossbar.hpp"
#include "switch/observe.hpp"
#include "traffic/workload.hpp"

#include "cli.hpp"

namespace {

using namespace ssq;

constexpr const char* kHelp = R"(usage: ssq_bench [options]

Measures the hot-path metrics gated in CI and writes BENCH_hotpath.json.

  --cycles=N          measured cycles per radix point (default 50000)
  --scenarios=N       scenarios per campaign timing point (default 40)
  --jobs=N            thread count for the parallel campaign point
                      (default 0 = all hardware threads, at most 512; on a
                      single-CPU host the parallel point is skipped and
                      campaign_jobs reports 1)
  --json=PATH         report path (default BENCH_hotpath.json)
  --check[=PATH]      compare against a baseline report (default: the
                      report path) and exit 1 on regression; throughput
                      regressions are only warnings when the baseline's
                      "host" block differs from this machine
  --tolerance=F       allowed fractional throughput regression for --check
                      (default 0.25)
  --write-baseline    alias for writing the report to the default path
  --help              print this message and exit
)";

using cli::opt_value;
using cli::parse_double;
using cli::parse_uint;

/// The measurement configuration: the paper's SSVC parameters at the
/// radix-64 bus budget (4 GB lanes), hotspot reservations on output 0 plus
/// spread best-effort — the same shape as bench/radix64_scale.
sw::SwitchConfig bench_config(std::uint32_t radix) {
  sw::SwitchConfig c;
  c.radix = radix;
  c.ssvc.level_bits = 2;
  c.ssvc.lsb_bits = 8;
  c.ssvc.vtick_bits = 8;
  c.ssvc.vtick_shift = 2;
  c.buffers.be_flits = 16;
  c.buffers.gb_flits_per_output = 16;
  c.buffers.gl_flits = 4;
  c.seed = 0xDAC2014;
  return c;
}

/// `stable` keeps every flow's offered load below its service rate so the
/// (unbounded) source queues reach a fixed capacity — required for the
/// allocations-per-step measurement; the throughput points deliberately
/// oversubscribe the hotspot instead to maximise arbitration pressure.
traffic::Workload bench_workload(std::uint32_t radix, bool stable) {
  const std::uint32_t gb = radix / 2;
  traffic::Workload w(radix);
  for (InputId i = 0; i < gb; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedBandwidth;
    f.reserved_rate = 0.88 / static_cast<double>(gb);
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = stable ? 0.8 * f.reserved_rate / 8.0 : 0.5;
    w.add_flow(f);
  }
  const std::uint32_t gl = radix > 8 ? 4 : 2;
  for (InputId i = gb; i < gb + gl; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedLatency;
    f.len_min = f.len_max = 2;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.004;
    w.add_flow(f);
  }
  w.set_gl_reservation(0, 0.06, 2);
  for (InputId i = gb + gl; i < radix; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = stable ? 0.02 : 0.3;
    w.add_flow(f);
  }
  return w;
}

/// Sparse sweep workload: synchronized periodic best-effort flows on
/// distinct input/output pairs at well under 10% per-port load. All flows
/// fire together, the fabric drains in a dozen cycles, and the remaining
/// ~94% of each period is globally idle — exactly the shape idle-cycle
/// fast-forward exists for (Periodic injectors are deterministic, so every
/// idle cycle is provably skippable).
traffic::Workload sparse_workload(std::uint32_t radix) {
  traffic::Workload w(radix);
  const std::uint32_t n = radix / 4;
  for (InputId i = 0; i < n; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Periodic;
    f.inject_rate = 0.02;  // period = 8 / 0.02 = 400 cycles, ~97% idle
    w.add_flow(f);
  }
  return w;
}

struct StepPoint {
  std::uint32_t radix = 0;
  double cycles_per_sec = 0.0;
  double ns_per_step = 0.0;
};

StepPoint timed_run(sw::CrossbarSwitch& sim, std::uint32_t radix,
                    Cycle cycles) {
  sim.warmup(5000);
  // Best of three repeats: a transient load spike on a shared box inflates
  // a single measurement arbitrarily, but the minimum wall time over a few
  // repeats converges on the machine's actual capability.
  double wall_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(cycles);
    const auto t1 = std::chrono::steady_clock::now();
    wall_s = std::min(wall_s, std::chrono::duration<double>(t1 - t0).count());
  }
  StepPoint p;
  p.radix = radix;
  p.cycles_per_sec = static_cast<double>(cycles) / wall_s;
  p.ns_per_step = wall_s * 1e9 / static_cast<double>(cycles);
  return p;
}

StepPoint measure_steps(std::uint32_t radix, Cycle cycles) {
  sw::CrossbarSwitch sim(bench_config(radix),
                         bench_workload(radix, /*stable=*/false));
  return timed_run(sim, radix, cycles);
}

StepPoint measure_sparse(std::uint32_t radix, Cycle cycles,
                         bool fast_forward) {
  sw::SwitchConfig cfg = bench_config(radix);
  cfg.fast_forward = fast_forward;
  sw::CrossbarSwitch sim(cfg, sparse_workload(radix));
  return timed_run(sim, radix, cycles);
}

/// The sparse sweep again with the full fault stack attached: a low-rate
/// bitflip process, one stuck lane, a mid-run port outage, and a periodic
/// state scrubber. Before the event-horizon fast-forward this configuration
/// was ineligible and fell back to full stepping; the gate now holds the
/// jumped throughput (the pre-rolled bitflip stream costs one RNG draw per
/// skipped cycle, the jumps save the full step). A fast-forwarded run that
/// never actually jumps would gate nothing, so that is an error here.
StepPoint measure_faulted_sparse(std::uint32_t radix, Cycle cycles,
                                 bool fast_forward) {
  sw::SwitchConfig cfg = bench_config(radix);
  cfg.fast_forward = fast_forward;
  fault::FaultPlan plan;
  plan.seed = 0xFA111;
  plan.bitflip_rate = 1e-4;
  plan.stuck_lanes.push_back(
      {/*output=*/1, /*lane=*/0, /*stuck_high=*/true, /*at=*/2000});
  plan.port_kills.push_back(
      {/*input=*/1, /*at=*/10000, /*restore_at=*/20000});
  fault::FaultInjector injector(plan);
  fault::StateScrubber scrubber(/*interval=*/512);
  sw::CrossbarSwitch sim(cfg, sparse_workload(radix));
  sim.attach_fault_injector(&injector);
  sim.attach_scrubber(&scrubber);
  const StepPoint p = timed_run(sim, radix, cycles);
  if (fast_forward && sim.ff_skipped_cycles() == 0) {
    throw ConfigError(
        "faulted sparse run never fast-forwarded; the measurement is vacuous");
  }
  return p;
}

/// Same stepping measurement with a probe + conformance monitor attached
/// via the extra sink — the monitor-on cost the --monitor CLI flag pays.
/// The gap vs the plain radix-N point is the monitored-stepping overhead;
/// the plain point itself stays probe-free, so the detached fast path
/// (one null-pointer branch per hook site) is what the gate holds to the
/// baseline.
StepPoint measure_monitored(std::uint32_t radix, Cycle cycles) {
  sw::CrossbarSwitch sim(bench_config(radix),
                         bench_workload(radix, /*stable=*/false));
  obs::SwitchProbe probe(radix);
  obs::ConformanceMonitor monitor(
      sw::make_conformance_config(sim.config(), sim.workload(), 2048));
  probe.set_extra_sink(&monitor);
  sim.attach_probe(&probe);
  return timed_run(sim, radix, cycles);
}

/// Allocations per steady-state step at the given radix: warm up until the
/// ring queues have reached capacity, then count operator-new calls over a
/// measurement window.
double measure_allocs(std::uint32_t radix, Cycle cycles) {
  sw::CrossbarSwitch sim(bench_config(radix),
                         bench_workload(radix, /*stable=*/true));
  sim.warmup(20000);
  alloc_hook::reset();
  sim.run(cycles);
  return static_cast<double>(alloc_hook::allocations()) /
         static_cast<double>(cycles);
}

/// Matching-engine arbitration throughput on the stability-lab cell model:
/// matched cells per second for iSLIP at radix 64, 0.9 uniform load — the
/// hot loop of bench/stability_lab, gated so the engines stay fast enough
/// for the lab's load sweeps. Best-of-three like timed_run().
double measure_matchings(Cycle cycles) {
  check::StabilityConfig cfg;
  cfg.radix = 64;
  cfg.engine = arb::MatchKind::Islip;
  cfg.iterations = 3;
  cfg.pattern = check::TrafficPattern::Uniform;
  cfg.load = 0.9;
  cfg.warmup = 2000;
  cfg.cycles = cycles;
  cfg.seed = 0xDAC2014;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const check::StabilityPoint pt = check::measure_stability(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    best = std::max(best, static_cast<double>(pt.departed) / wall_s);
  }
  return best;
}

/// Same scenario set as measure_campaign, but run serially through the
/// campaign service's shard runner with its checkpoint journal attached
/// (one start + one done record per scenario, encode + CRC + flush + fsync,
/// exactly as a real campaign journals). The gap vs the plain 1-thread
/// point is the per-scenario resume-ability tax — what a `ssq_campaign` run
/// pays over `ssq_fuzz` for being `kill -9`-proof, storage latency included.
double measure_campaign_ckpt(std::uint64_t scenarios) {
  namespace fs = std::filesystem;
  campaign::Manifest m;
  m.base_seed = 1;
  m.scenarios = scenarios;
  m.shards = 1;
  m.grid = {campaign::parse_grid_point("default")};
  const fs::path dir =
      fs::temp_directory_path() /
      ("ssq_bench_ckpt_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  campaign::init_campaign_dir(dir.string(), m);
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::ShardOutcome outcome = campaign::run_shard(dir.string(), m, 0);
  const auto t1 = std::chrono::steady_clock::now();
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (outcome != campaign::ShardOutcome::Completed) {
    throw ConfigError("checkpointed campaign shard did not complete");
  }
  return static_cast<double>(scenarios) /
         std::chrono::duration<double>(t1 - t0).count();
}

double measure_campaign(std::uint64_t scenarios, unsigned jobs,
                        const check::CheckOptions& opts = {}) {
  exec::ThreadPool pool(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  pool.run_indexed(static_cast<std::size_t>(scenarios), [&](std::size_t i) {
    const check::Scenario s = check::generate_scenario(i, 1);
    const check::RunResult r = check::run_scenario(s, opts);
    if (r.failed) throw ConfigError("campaign scenario failed: " + r.kind);
  });
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(scenarios) /
         std::chrono::duration<double>(t1 - t0).count();
}

#ifndef SSQ_HOST_COMPILER
#define SSQ_HOST_COMPILER "unknown"
#endif
#ifndef SSQ_HOST_BUILD_TYPE
#define SSQ_HOST_BUILD_TYPE "unknown"
#endif
#ifndef SSQ_HOST_CXX_FLAGS
#define SSQ_HOST_CXX_FLAGS ""
#endif

/// Identification of the machine + toolchain that produced a report.
/// Timing baselines are only apples-to-apples when all of this matches.
std::vector<std::pair<std::string, std::string>> host_info() {
  return {{"cpus", std::to_string(exec::ThreadPool::hardware_threads())},
          {"compiler", SSQ_HOST_COMPILER},
          {"build_type", SSQ_HOST_BUILD_TYPE},
          {"flags", SSQ_HOST_CXX_FLAGS}};
}

/// Extracts the `"host":{"k":"v",...}` object of a report; empty when the
/// report predates host identification (treated as a host mismatch).
std::vector<std::pair<std::string, std::string>> read_host(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ConfigError("cannot open baseline '" + path + "'");
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  const std::string key = "\"host\":{";
  const std::size_t begin = text.find(key);
  std::vector<std::pair<std::string, std::string>> out;
  if (begin == std::string::npos) return out;
  const std::size_t end = text.find('}', begin);
  if (end == std::string::npos) return out;
  std::size_t pos = begin + key.size();
  while (pos < end) {
    const std::size_t k0 = text.find('"', pos);
    if (k0 == std::string::npos || k0 >= end) break;
    const std::size_t k1 = text.find('"', k0 + 1);
    if (k1 == std::string::npos || k1 >= end) break;
    const std::size_t v0 = text.find('"', k1 + 1);
    if (v0 == std::string::npos || v0 >= end) break;
    const std::size_t v1 = text.find('"', v0 + 1);
    if (v1 == std::string::npos || v1 > end) break;
    out.emplace_back(text.substr(k0 + 1, k1 - k0 - 1),
                     text.substr(v0 + 1, v1 - v0 - 1));
    pos = v1 + 1;
  }
  return out;
}

/// Minimal extractor for the `"metrics":{"name":value,...}` object of an
/// ssq.bench.v1 report (our own writer, so the shape is known).
std::vector<std::pair<std::string, double>> read_metrics(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) throw ConfigError("cannot open baseline '" + path + "'");
  std::stringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  const std::string key = "\"metrics\":{";
  const std::size_t begin = text.find(key);
  if (begin == std::string::npos) {
    throw ConfigError("no metrics object in '" + path + "'");
  }
  const std::size_t end = text.find('}', begin);
  if (end == std::string::npos) {
    throw ConfigError("malformed metrics object in '" + path + "'");
  }
  std::vector<std::pair<std::string, double>> out;
  std::size_t pos = begin + key.size();
  while (pos < end) {
    const std::size_t q0 = text.find('"', pos);
    if (q0 == std::string::npos || q0 >= end) break;
    const std::size_t q1 = text.find('"', q0 + 1);
    if (q1 == std::string::npos || q1 >= end) break;
    const std::size_t colon = text.find(':', q1);
    if (colon == std::string::npos || colon >= end) break;
    std::size_t stop = text.find(',', colon);
    if (stop == std::string::npos || stop > end) stop = end;
    std::string name = text.substr(q0 + 1, q1 - q0 - 1);
    // Strict: a value that does not parse must fail the check, not read as
    // 0 and disarm that metric's gate.
    const double value = parse_double(
        std::string_view(text).substr(colon + 1, stop - colon - 1),
        "baseline metric '" + name + "' in '" + path + "'");
    out.emplace_back(std::move(name), value);
    pos = stop + 1;
  }
  return out;
}

void write_report(const std::string& path,
                  const std::vector<std::pair<std::string, double>>& metrics) {
  std::ofstream os(path);
  if (!os) throw ConfigError("cannot open '" + path + "' for writing");
  os << "{\"schema\":\"ssq.bench.v1\",\"bench\":\"hotpath\",\"host\":{";
  const auto host = host_info();
  for (std::size_t i = 0; i < host.size(); ++i) {
    if (i) os << ',';
    os << obs::json_quote(host[i].first) << ':'
       << obs::json_quote(host[i].second);
  }
  os << "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ',';
    os << obs::json_quote(metrics[i].first) << ':'
       << obs::json_number(metrics[i].second);
  }
  os << "},\"tables\":[]}\n";
  if (!os.flush()) throw ConfigError("write failure on '" + path + "'");
}

}  // namespace

int main(int argc, char** argv) {
  Cycle cycles = 50000;
  std::uint64_t scenarios = 40;
  unsigned jobs = 0;
  std::string json_path = "BENCH_hotpath.json";
  std::optional<std::string> check_path;
  double tolerance = 0.25;
  bool write_baseline = false;

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (arg == "--help") {
        std::cout << kHelp;
        return 0;
      } else if (auto v = opt_value(arg, "--cycles")) {
        cycles = parse_uint<std::uint64_t>(*v, "--cycles");
        if (cycles == 0) throw ConfigError("--cycles must be positive");
      } else if (auto v2 = opt_value(arg, "--scenarios")) {
        scenarios = parse_uint<std::uint64_t>(*v2, "--scenarios");
        if (scenarios == 0) throw ConfigError("--scenarios must be positive");
      } else if (auto v3 = opt_value(arg, "--jobs")) {
        jobs = cli::parse_jobs(*v3, "--jobs");
      } else if (auto v4 = opt_value(arg, "--json")) {
        if (v4->empty()) throw ConfigError("--json needs =PATH");
        json_path = *v4;
      } else if (arg == "--check") {
        check_path = std::string{};
      } else if (auto v5 = opt_value(arg, "--check")) {
        check_path = *v5;
      } else if (auto v6 = opt_value(arg, "--tolerance")) {
        tolerance = parse_double(*v6, "--tolerance");
        if (tolerance < 0.0 || tolerance >= 1.0) {
          throw ConfigError("--tolerance expects a fraction in [0, 1)");
        }
      } else if (arg == "--write-baseline") {
        write_baseline = true;
      } else {
        std::cerr << "unknown option '" << arg << "' (--help for the list)\n";
        return 2;
      }
    }
    const unsigned hw_threads = exec::ThreadPool::hardware_threads();
    if (jobs == 0) jobs = hw_threads;

    // Baseline must be read BEFORE we overwrite the report in place.
    std::vector<std::pair<std::string, double>> baseline;
    bool host_matches = true;
    if (check_path.has_value()) {
      const std::string base_path =
          check_path->empty() ? json_path : *check_path;
      baseline = read_metrics(base_path);
      const auto base_host = read_host(base_path);
      const auto cur_host = host_info();
      if (base_host != cur_host) {
        host_matches = false;
        std::cout << "baseline host differs from this machine; throughput "
                     "regressions will only warn:\n";
        for (const auto& [k, v] : cur_host) {
          std::string base_v = "<absent>";
          for (const auto& [bk, bv] : base_host) {
            if (bk == k) base_v = bv;
          }
          if (base_v != v) {
            std::cout << "  " << k << ": baseline '" << base_v << "' vs '"
                      << v << "'\n";
          }
        }
      }
    }

    std::vector<std::pair<std::string, double>> metrics;
    for (std::uint32_t radix : {8u, 16u, 32u, 64u}) {
      const StepPoint p = measure_steps(radix, cycles);
      std::cout << "radix " << p.radix << ": "
                << static_cast<long>(p.cycles_per_sec) << " cycles/s ("
                << p.ns_per_step << " ns/step)\n";
      metrics.emplace_back("cycles_per_sec_radix" + std::to_string(radix),
                           p.cycles_per_sec);
      metrics.emplace_back("ns_per_step_radix" + std::to_string(radix),
                           p.ns_per_step);
    }
    const StepPoint mon64 = measure_monitored(64, cycles);
    std::cout << "radix 64 with conformance monitor: "
              << static_cast<long>(mon64.cycles_per_sec) << " cycles/s ("
              << mon64.ns_per_step << " ns/step)\n";
    metrics.emplace_back("cycles_per_sec_radix64_monitor",
                         mon64.cycles_per_sec);

    // Sparse sweep: ten periods' worth of cycles so the fast-forwarded run
    // is long enough to time. Same simulation either way — the golden-trace
    // corpus asserts byte-identical events — only wall clock differs.
    const Cycle sparse_cycles = cycles * 10;
    const StepPoint sp_ff =
        measure_sparse(64, sparse_cycles, /*fast_forward=*/true);
    const StepPoint sp_noff =
        measure_sparse(64, sparse_cycles, /*fast_forward=*/false);
    std::cout << "sparse radix 64 (sub-10% load): "
              << static_cast<long>(sp_ff.cycles_per_sec)
              << " cycles/s with fast-forward, "
              << static_cast<long>(sp_noff.cycles_per_sec)
              << " without (x" << sp_ff.cycles_per_sec / sp_noff.cycles_per_sec
              << ")\n";
    metrics.emplace_back("cycles_per_sec_sparse64_ff", sp_ff.cycles_per_sec);
    metrics.emplace_back("cycles_per_sec_sparse64_noff",
                         sp_noff.cycles_per_sec);

    // The same sparse sweep with faults + scrubber attached: the universal
    // (event-horizon) fast-forward point. The noff twin is printed for the
    // ratio but not gated — it duplicates what sparse64_noff already holds.
    const StepPoint spf_ff =
        measure_faulted_sparse(64, sparse_cycles, /*fast_forward=*/true);
    const StepPoint spf_noff =
        measure_faulted_sparse(64, sparse_cycles, /*fast_forward=*/false);
    std::cout << "sparse radix 64 faulted+scrubbed: "
              << static_cast<long>(spf_ff.cycles_per_sec)
              << " cycles/s with fast-forward, "
              << static_cast<long>(spf_noff.cycles_per_sec) << " without (x"
              << spf_ff.cycles_per_sec / spf_noff.cycles_per_sec << ")\n";
    metrics.emplace_back("cycles_per_sec_radix64_faulted_ff",
                         spf_ff.cycles_per_sec);

    const double allocs = measure_allocs(64, cycles);
    std::cout << "radix 64 steady-state allocations/step: " << allocs << "\n";
    metrics.emplace_back("allocs_per_step_radix64", allocs);

    const double mps = measure_matchings(cycles);
    std::cout << "islip matchings (radix 64, 0.9 uniform cell model): "
              << static_cast<long>(mps) << " matchings/s\n";
    metrics.emplace_back("matchings_per_sec_islip", mps);

    const double sps1 = measure_campaign(scenarios, 1);
    std::cout << "campaign at 1 thread: " << sps1 << " scenarios/s\n";
    metrics.emplace_back("campaign_scenarios_per_sec_jobs1", sps1);
    // Monitor-on campaign (the ssq_fuzz --monitor configuration, flight
    // recorder included): monitored scenarios fast-forward too — the
    // monitor's on_clock_jump coalesces skipped windows — so this point
    // gates the checking plane's share of the event-horizon win.
    check::CheckOptions mon_opts;
    mon_opts.monitor = true;
    mon_opts.flight_recorder = 256;
    const double sps_mon = measure_campaign(scenarios, 1, mon_opts);
    std::cout << "campaign at 1 thread with monitor: " << sps_mon
              << " scenarios/s\n";
    metrics.emplace_back("campaign_scenarios_per_sec_monitor", sps_mon);
    const double sps_ckpt = measure_campaign_ckpt(scenarios);
    std::cout << "campaign with checkpoint journal: " << sps_ckpt
              << " scenarios/s (resume overhead x" << sps1 / sps_ckpt
              << " vs plain)\n";
    metrics.emplace_back("campaign_scenarios_per_sec_ckpt", sps_ckpt);
    if (hw_threads > 1 && jobs > 1) {
      const double spsN = measure_campaign(scenarios, jobs);
      std::cout << "campaign at " << jobs << " threads: " << spsN
                << " scenarios/s\n";
      metrics.emplace_back("campaign_jobs", static_cast<double>(jobs));
      metrics.emplace_back("campaign_scenarios_per_sec_jobsN", spsN);
    } else {
      // A single hardware thread cannot demonstrate parallel speedup;
      // pretending otherwise just records scheduler noise. Report the
      // honest job count and skip the parallel point (the --check gate
      // skips metrics that are absent from the current run).
      std::cout << "campaign parallel point skipped ("
                << hw_threads << " hardware thread(s), --jobs=" << jobs
                << ")\n";
      metrics.emplace_back("campaign_jobs", 1.0);
    }

    if (write_baseline || !check_path.has_value()) {
      write_report(json_path, metrics);
      std::cout << "report written to " << json_path << "\n";
    }

    // Regression gate: throughput metrics may not drop by more than
    // `tolerance` vs the baseline; the allocation count may not grow at
    // all (it is a correctness-style claim, not a timing).
    int failures = 0;
    for (const auto& [name, base] : baseline) {
      double cur = -1.0;
      for (const auto& [n2, v2] : metrics) {
        if (n2 == name) cur = v2;
      }
      if (cur < 0.0) continue;  // metric vanished or is campaign_jobs
      const bool is_throughput = name.find("cycles_per_sec") == 0 ||
                                 name.find("campaign_scenarios_per_sec") == 0 ||
                                 name.find("matchings_per_sec") == 0;
      if (is_throughput && cur < base * (1.0 - tolerance)) {
        // Cross-host timing baselines are not comparable; warn, don't fail.
        std::cout << (host_matches ? "REGRESSION " : "WARNING (host differs) ")
                  << name << ": " << cur << " < " << base * (1.0 - tolerance)
                  << " (baseline " << base << ", tolerance " << tolerance
                  << ")\n";
        if (host_matches) ++failures;
      }
      if (name == "allocs_per_step_radix64" && cur > base + 0.01) {
        std::cout << "REGRESSION " << name << ": " << cur << " > baseline "
                  << base << "\n";
        ++failures;
      }
    }
    if (check_path.has_value()) {
      if (failures != 0) return 1;
      std::cout << "baseline check passed (" << baseline.size()
                << " metrics, tolerance " << tolerance << ")\n";
    }
    return 0;
  } catch (const ConfigError& e) {
    std::cerr << "ssq_bench: " << e.what() << "\n";
    return 2;
  }
}
