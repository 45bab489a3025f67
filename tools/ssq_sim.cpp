// ssq_sim — standalone command-line driver for the Swizzle Switch QoS
// simulator. Runs a workload description file (see src/traffic/workload_io)
// through a configured switch and prints per-flow results. Run with --help
// for the full option list; docs/OBSERVABILITY.md describes the trace,
// metrics and JSON-summary outputs.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scrubber.hpp"
#include "obs/conformance.hpp"
#include "obs/json.hpp"
#include "obs/probe.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"
#include "stats/table.hpp"
#include "switch/observe.hpp"
#include "switch/simulator.hpp"
#include "traffic/workload_io.hpp"

#include "cli.hpp"

namespace {

using namespace ssq;

constexpr const char* kHelp = R"(usage: ssq_sim <workload-file> [options]

Runs the workload through a configured switch and prints per-flow rates,
latencies and per-output channel occupancy.

Arbitration:
  --mode=ssvc | lrg | round_robin | age | tdm | wrr | dwrr | wfq |
         virtual_clock | multilevel | fixed_priority | pvc
                          output arbitration (default ssvc)
  --policy=subtract_real_clock | halve | reset
                          SSVC counter management (default subtract)
  --level-bits=K --lsb-bits=K --vtick-bits=K --vtick-shift=K
                          SSVC counter geometry (defaults 4/5/8/2)
  --arb-cycles=N          arbitration cycles per grant (default 1)
  --no-fast-forward       disable idle-cycle fast-forward (grants and
                          traces are identical either way; this only
                          changes wall-clock speed on sparse workloads)
  --chaining              enable Packet Chaining (SSVC mode only)
  --gsf=FRAME[,BARRIER]   enable GSF-style source regulation

Run control:
  --warmup=N              warmup cycles (default 5000)
  --measure=N             measured cycles, N >= 1 (default 100000)
  --repeat=N              run the simulation N times (default 1); the extra
                          passes are identical and untraced, and cycles/sec
                          is aggregated over all measure phases
  --seed=N                RNG seed (default 1)
  --from-creation         measure latency from packet creation

Output:
  --csv                   machine-readable tables on stdout
  --json=FILE             structured run summary (single JSON object,
                          including a "perf" section with cycles/sec and
                          peak RSS)

Observability (see docs/OBSERVABILITY.md):
  --trace=FILE            event trace; Chrome trace-event JSON, loadable in
                          Perfetto (a .jsonl suffix selects the JSONL sink)
  --trace-format=chrome|jsonl
                          override the suffix-based sink choice
  --trace-limit=N         stop recording after N events (default unbounded)
  --metrics=FILE          metrics-registry dump + periodic snapshots (JSON)
  --metrics-interval=N    snapshot sampling period in cycles (default 5000)
  --monitor               attach the online QoS conformance monitor: GB
                          share vs reservation, GL wait vs the Eq. (1)
                          bound, BE Jain fairness, judged per window;
                          verdicts go to stdout, --metrics and --json
  --monitor-window=N      conformance window in cycles (default 2048)
  --monitor-gb-tol=R      GB share tolerance in [0,1] (default 0.5)
  --flight-recorder=N     keep a ring of the last N events and dump it as
                          JSONL when a violation or fault fires (implies
                          --monitor)
  --flight-dump=FILE      flight-recorder dump path (default flight.jsonl)

Fault injection and recovery (see docs/FAULTS.md; SSVC mode only):
  --fault-seed=N          fault-plan RNG seed (default 0x5eed); equal seeds
                          replay bit-identical fault schedules
  --fault-bitflip-rate=R  per-cycle single-bit-upset probability in [0,1]
  --fault-stuck-lane=O,L[,low]
                          stick GB bitline lane L of output O at 1 (or 0)
  --fault-kill-port=P[,AT[,RESTORE]]
                          input port P dead from cycle AT (default 0) until
                          RESTORE (default never)
  --scrub-interval=N      run the state scrubber every N cycles (default off)

  --help                  print this message and exit

Exit status: 0 on success; 1 on a workload-file, configuration or output
error; 2 on bad usage (an unknown option or a malformed option value).
)";

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <workload-file> [options]  (--help for the full "
               "list)\n",
               argv0);
  std::exit(2);
}

using cli::opt_value;
using cli::parse_positive;
using cli::parse_rate;
using cli::parse_uint;

/// The bad-usage error for `option`'s `value`.
[[noreturn]] void bad_value(std::string_view option, std::string_view value,
                            std::string_view expected) {
  throw ConfigError("invalid value '" + std::string(value) + "' for " +
                    std::string(option) + " (expected " +
                    std::string(expected) + ")");
}

/// A file-path option's value, which must not be empty.
std::string need_path(std::string_view value, std::string_view option) {
  if (value.empty()) bad_value(option, value, "a file path");
  return std::string(value);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  while (true) {
    const auto comma = s.find(',', from);
    parts.push_back(s.substr(from, comma - from));
    if (comma == std::string::npos) return parts;
    from = comma + 1;
  }
}

std::ofstream open_or_die(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw ssq::ConfigError("cannot open '" + path + "' for writing");
  }
  return os;
}

/// Flushes and verifies the stream; a full disk or closed pipe must fail
/// the run, not silently truncate the report.
void check_write(std::ostream& os, const std::string& path) {
  os.flush();
  if (!os) throw std::runtime_error("write failure on '" + path + "'");
}

/// Peak resident set size of this process in bytes (0 if unavailable).
std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0 || ru.ru_maxrss < 0) return 0;
#ifdef __APPLE__
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // already bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB -> bytes
#endif
}

struct PerfSummary {
  std::uint64_t repeat = 1;
  double cycles_per_sec = 0.0;  // aggregated over every measure phase
  std::uint64_t rss_bytes = 0;
};

void write_json_summary(std::ostream& os, const std::string& workload_path,
                        const std::string& mode_name, Cycle warmup,
                        const sw::CrossbarSwitch& sim,
                        const sw::ExperimentResult& r,
                        const PerfSummary& perf,
                        const obs::ConformanceMonitor* monitor) {
  const auto& cfg = sim.config();
  os << "{\"schema\":\"ssq.run.v1\",\"workload\":"
     << obs::json_quote(workload_path) << ",\"mode\":"
     << obs::json_quote(mode_name) << ",\"radix\":" << cfg.radix
     << ",\"seed\":" << cfg.seed << ",\"warmup_cycles\":" << warmup
     << ",\"measured_cycles\":" << r.measured_cycles
     << ",\"total_accepted_rate\":"
     << obs::json_number(r.total_accepted_rate)
     << ",\"perf\":{\"repeat\":" << perf.repeat << ",\"cycles_per_sec\":"
     << obs::json_number(perf.cycles_per_sec) << ",\"peak_rss_bytes\":"
     << perf.rss_bytes << "},\"flows\":[";
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const auto& f = r.flows[i];
    if (i) os << ',';
    os << "\n{\"flow\":" << f.flow << ",\"src\":" << f.src << ",\"dst\":"
       << f.dst << ",\"class\":" << obs::json_quote(to_string(f.cls))
       << ",\"reserved_rate\":" << obs::json_number(f.reserved_rate)
       << ",\"offered_rate\":" << obs::json_number(f.offered_rate)
       << ",\"accepted_rate\":" << obs::json_number(f.accepted_rate)
       << ",\"mean_latency\":" << obs::json_number(f.mean_latency)
       << ",\"p50_latency\":" << obs::json_number(f.p50_latency)
       << ",\"p95_latency\":" << obs::json_number(f.p95_latency)
       << ",\"p99_latency\":" << obs::json_number(f.p99_latency)
       << ",\"max_latency\":" << obs::json_number(f.max_latency)
       << ",\"mean_wait\":" << obs::json_number(f.mean_wait)
       << ",\"p50_wait\":" << obs::json_number(f.p50_wait)
       << ",\"p95_wait\":" << obs::json_number(f.p95_wait)
       << ",\"p99_wait\":" << obs::json_number(f.p99_wait)
       << ",\"max_wait\":" << obs::json_number(f.max_wait)
       << ",\"delivered_packets\":" << f.delivered_packets
       << ",\"max_source_backlog\":" << sim.max_source_backlog(f.flow)
       << "}";
  }
  os << "],\"outputs\":[";
  for (OutputId o = 0; o < cfg.radix; ++o) {
    const auto u = sim.channel_usage(o);
    if (o) os << ',';
    os << "\n{\"output\":" << o << ",\"arbitration_cycles\":"
       << u.arbitration_cycles << ",\"transfer_cycles\":" << u.transfer_cycles
       << ",\"preemptions\":" << sim.preemptions(o) << "}";
  }
  os << "],\"inputs\":[";
  for (InputId i = 0; i < cfg.radix; ++i) {
    const auto& port = sim.input(i);
    if (i) os << ',';
    os << "\n{\"input\":" << i << ",\"peak_be_flits\":"
       << port.peak_be_occupancy() << ",\"peak_gb_flits\":"
       << port.peak_gb_occupancy() << ",\"peak_gl_flits\":"
       << port.peak_gl_occupancy() << "}";
  }
  os << "],\"wasted_flits\":" << sim.wasted_flits();
  if (monitor != nullptr) {
    os << ",\"conformance\":";
    monitor->write_json(os);
  }
  os << "}\n";
}

int run(int argc, char** argv) {
  std::string workload_path;
  sw::SwitchConfig config;
  config.ssvc.level_bits = 4;
  config.ssvc.lsb_bits = 5;
  config.ssvc.vtick_shift = 2;
  Cycle warmup = 5000;
  Cycle measure = 100000;
  std::uint64_t repeat = 1;
  bool csv = false;
  std::string trace_path;
  std::string trace_format;  // "", "chrome" or "jsonl"
  std::uint64_t trace_limit = obs::Tracer::kNoLimit;
  std::string metrics_path;
  Cycle metrics_interval = 5000;
  std::string json_path;
  bool monitor_on = false;
  Cycle monitor_window = 2048;
  double monitor_gb_tol = -1.0;  // < 0 = monitor default
  std::size_t flight_capacity = 0;
  std::string flight_path = "flight.jsonl";
  fault::FaultPlan plan;
  Cycle scrub_interval = 0;  // 0 = scrubber off

  // Every option error is bad usage (exit 2) and names the option and its
  // value; workload-file and configuration errors surface later (exit 1).
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (arg == "--help" || arg == "-h") {
        std::fputs(kHelp, stdout);
        return 0;
      } else if (arg == "--csv") {
        csv = true;
      } else if (arg == "--chaining") {
        config.packet_chaining = true;
      } else if (arg == "--from-creation") {
        config.latency_from_creation = true;
      } else if (auto v = opt_value(arg, "--mode")) {
        if (*v == "ssvc") {
          config.mode = sw::ArbitrationMode::SsvcQos;
        } else {
          config.mode = sw::ArbitrationMode::Baseline;
          try {
            config.baseline = arb::parse_kind(*v);
          } catch (const ConfigError&) {
            bad_value("--mode", *v,
                      "ssvc, lrg, round_robin, age, tdm, wrr, dwrr, wfq, "
                      "virtual_clock, multilevel, fixed_priority or pvc");
          }
        }
      } else if (auto v2 = opt_value(arg, "--policy")) {
        if (*v2 == "subtract_real_clock") {
          config.ssvc.policy = core::CounterPolicy::SubtractRealClock;
        } else if (*v2 == "halve") {
          config.ssvc.policy = core::CounterPolicy::Halve;
        } else if (*v2 == "reset") {
          config.ssvc.policy = core::CounterPolicy::Reset;
        } else {
          bad_value("--policy", *v2, "subtract_real_clock, halve or reset");
        }
      } else if (auto v3 = opt_value(arg, "--level-bits")) {
        config.ssvc.level_bits = parse_uint<std::uint32_t>(*v3, "--level-bits");
      } else if (auto v4 = opt_value(arg, "--lsb-bits")) {
        config.ssvc.lsb_bits = parse_uint<std::uint32_t>(*v4, "--lsb-bits");
      } else if (auto v5 = opt_value(arg, "--vtick-bits")) {
        config.ssvc.vtick_bits = parse_uint<std::uint32_t>(*v5, "--vtick-bits");
      } else if (auto v6 = opt_value(arg, "--vtick-shift")) {
        config.ssvc.vtick_shift =
            parse_uint<std::uint32_t>(*v6, "--vtick-shift");
      } else if (auto v7 = opt_value(arg, "--warmup")) {
        warmup = parse_uint<Cycle>(*v7, "--warmup");
      } else if (auto v8 = opt_value(arg, "--measure")) {
        measure = parse_positive<Cycle>(*v8, "--measure");
      } else if (auto vr = opt_value(arg, "--repeat")) {
        repeat = parse_positive<std::uint64_t>(*vr, "--repeat");
      } else if (auto v9 = opt_value(arg, "--seed")) {
        config.seed = parse_uint<std::uint64_t>(*v9, "--seed");
      } else if (auto v10 = opt_value(arg, "--arb-cycles")) {
        config.arbitration_cycles =
            parse_uint<std::uint32_t>(*v10, "--arb-cycles");
      } else if (arg == "--no-fast-forward") {
        config.fast_forward = false;
      } else if (auto v11 = opt_value(arg, "--gsf")) {
        config.gsf.enabled = true;
        const auto comma = v11->find(',');
        if (comma == std::string::npos) {
          config.gsf.frame_cycles = parse_uint<Cycle>(*v11, "--gsf");
        } else {
          config.gsf.frame_cycles =
              parse_uint<Cycle>(v11->substr(0, comma), "--gsf");
          config.gsf.barrier_cycles =
              parse_uint<Cycle>(v11->substr(comma + 1), "--gsf");
        }
      } else if (auto v12 = opt_value(arg, "--trace")) {
        trace_path = need_path(*v12, "--trace");
      } else if (auto v13 = opt_value(arg, "--trace-format")) {
        if (*v13 != "chrome" && *v13 != "jsonl") {
          bad_value("--trace-format", *v13, "chrome or jsonl");
        }
        trace_format = *v13;
      } else if (auto v14 = opt_value(arg, "--trace-limit")) {
        trace_limit = parse_uint<std::uint64_t>(*v14, "--trace-limit");
      } else if (auto v15 = opt_value(arg, "--metrics")) {
        metrics_path = need_path(*v15, "--metrics");
      } else if (auto v16 = opt_value(arg, "--metrics-interval")) {
        metrics_interval = parse_positive<Cycle>(*v16, "--metrics-interval");
      } else if (arg == "--monitor") {
        monitor_on = true;
      } else if (auto vmw = opt_value(arg, "--monitor-window")) {
        monitor_window = parse_positive<Cycle>(*vmw, "--monitor-window");
      } else if (auto vmt = opt_value(arg, "--monitor-gb-tol")) {
        monitor_gb_tol = parse_rate(*vmt, "--monitor-gb-tol");
      } else if (auto vfr = opt_value(arg, "--flight-recorder")) {
        flight_capacity =
            parse_positive<std::size_t>(*vfr, "--flight-recorder");
      } else if (auto vfd = opt_value(arg, "--flight-dump")) {
        flight_path = need_path(*vfd, "--flight-dump");
      } else if (auto v17 = opt_value(arg, "--json")) {
        json_path = need_path(*v17, "--json");
      } else if (auto v18 = opt_value(arg, "--fault-seed")) {
        plan.seed = parse_uint<std::uint64_t>(*v18, "--fault-seed");
      } else if (auto v19 = opt_value(arg, "--fault-bitflip-rate")) {
        plan.bitflip_rate = parse_rate(*v19, "--fault-bitflip-rate");
      } else if (auto v20 = opt_value(arg, "--fault-stuck-lane")) {
        const auto parts = split_commas(*v20);
        if (parts.size() < 2 || parts.size() > 3 ||
            (parts.size() == 3 && parts[2] != "low" && parts[2] != "high")) {
          bad_value("--fault-stuck-lane", *v20, "OUTPUT,LANE[,low|high]");
        }
        plan.stuck_lanes.push_back(
            {.output = parse_uint<OutputId>(parts[0], "--fault-stuck-lane"),
             .lane = parse_uint<std::uint32_t>(parts[1], "--fault-stuck-lane"),
             .stuck_high = parts.size() < 3 || parts[2] == "high",
             .at = 0});
      } else if (auto v21 = opt_value(arg, "--fault-kill-port")) {
        const auto parts = split_commas(*v21);
        if (parts.size() > 3) {
          bad_value("--fault-kill-port", *v21, "PORT[,AT[,RESTORE]]");
        }
        fault::PortKill kill;
        kill.input = parse_uint<InputId>(parts[0], "--fault-kill-port");
        if (parts.size() >= 2) {
          kill.at = parse_uint<Cycle>(parts[1], "--fault-kill-port");
        }
        if (parts.size() >= 3) {
          kill.restore_at = parse_uint<Cycle>(parts[2], "--fault-kill-port");
          if (kill.restore_at <= kill.at) {
            bad_value("--fault-kill-port", *v21, "RESTORE after AT");
          }
        }
        plan.port_kills.push_back(kill);
      } else if (auto v22 = opt_value(arg, "--scrub-interval")) {
        scrub_interval = parse_positive<Cycle>(*v22, "--scrub-interval");
      } else if (!arg.empty() && arg[0] == '-') {
        throw ConfigError("unknown option '" + std::string(arg) + "'");
      } else if (workload_path.empty()) {
        workload_path = std::string(arg);
      } else {
        throw ConfigError("unexpected argument '" + std::string(arg) +
                          "' (one workload file)");
      }
    }
    if (workload_path.empty()) throw ConfigError("no workload file given");
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "ssq_sim: %s\n", e.what());
    usage(argv[0]);
  }

  auto workload = traffic::load_workload(workload_path);
  config.radix = workload.radix();

  const std::string mode_name =
      config.mode == sw::ArbitrationMode::SsvcQos
          ? std::string("ssvc/") +
                core::to_string(config.ssvc.policy)
          : std::string(arb::kind_name(config.baseline));
  if (!csv) {
    std::cout << "ssq_sim: " << workload_path << " | radix "
              << config.radix << " | mode " << mode_name << " | warmup "
              << warmup << " | measure " << measure << " | seed "
              << config.seed << "\n\n";
  }

  // Run manually so per-channel usage stays accessible afterwards.
  const auto radix = config.radix;

  // Extra --repeat passes: identical fresh switches, no probes or faults,
  // timed around the measure phase only. They contribute to cycles/sec
  // (and perturb nothing else — the reported tables come from the final,
  // fully instrumented run below).
  double measure_wall_s = 0.0;
  for (std::uint64_t rep = 1; rep < repeat; ++rep) {
    sw::CrossbarSwitch pass(config, workload);
    pass.warmup(warmup);
    const auto p0 = std::chrono::steady_clock::now();
    pass.measure(measure);
    measure_wall_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
            .count();
  }

  sw::CrossbarSwitch sim(config, std::move(workload));

  // Fault injection and scrubbing attach like the probe: nullable pointers,
  // nothing on the hot path when absent.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::StateScrubber> scrubber;
  if (!plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(plan);
    sim.attach_fault_injector(injector.get());
  }
  if (scrub_interval > 0) {
    scrubber = std::make_unique<fault::StateScrubber>(scrub_interval);
    sim.attach_scrubber(scrubber.get());
  }

  // A flight recorder is only ever dumped by monitor triggers.
  if (flight_capacity > 0) monitor_on = true;

  // Observability: one probe feeds the tracer, the metrics registry and the
  // snapshot sampler. With no sink flags nothing is attached and the hot
  // path keeps its null-probe fast path.
  const bool want_obs =
      !trace_path.empty() || !metrics_path.empty() || monitor_on;
  std::unique_ptr<obs::SwitchProbe> probe;
  std::ofstream trace_os;
  std::unique_ptr<obs::TraceSink> trace_sink;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::SnapshotSampler> sampler;
  std::optional<obs::ConformanceConfig> mon_cfg;
  if (monitor_on) {
    mon_cfg = sw::make_conformance_config(config, sim.workload(),
                                          monitor_window);
    if (monitor_gb_tol >= 0.0) mon_cfg->gb_tolerance = monitor_gb_tol;
  }
  sw::IncidentRig incidents(flight_capacity, std::move(mon_cfg));
  obs::ConformanceMonitor* const monitor = incidents.monitor();
  if (want_obs) {
    probe = std::make_unique<obs::SwitchProbe>(radix);
    if (!trace_path.empty()) {
      trace_os = open_or_die(trace_path);
      const bool jsonl = trace_format.empty()
                             ? trace_path.ends_with(".jsonl")
                             : trace_format == "jsonl";
      if (jsonl) {
        trace_sink = std::make_unique<obs::JsonlSink>(trace_os);
      } else {
        trace_sink = std::make_unique<obs::ChromeTraceSink>(trace_os, radix);
      }
      tracer = std::make_unique<obs::Tracer>(*trace_sink, trace_limit);
      probe->set_tracer(tracer.get());
    }
    if (!metrics_path.empty()) {
      sampler = std::make_unique<obs::SnapshotSampler>(radix,
                                                       metrics_interval);
    }
    if (incidents.sink() != nullptr) probe->set_extra_sink(incidents.sink());
    sim.attach_probe(probe.get());
  }

  // warmup(0)/measure(0) only flip the measurement window, so sampled
  // snapshots span warmup and measurement alike.
  const auto advance = [&](Cycle cycles) {
    sampler ? sw::run_sampled(sim, cycles, *sampler) : sim.run(cycles);
  };
  advance(warmup);
  sim.warmup(0);
  const auto m0 = std::chrono::steady_clock::now();
  advance(measure);
  sim.measure(0);
  measure_wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
          .count();
  PerfSummary perf;
  perf.repeat = repeat;
  perf.cycles_per_sec =
      measure_wall_s > 0.0
          ? static_cast<double>(measure) * static_cast<double>(repeat) /
                measure_wall_s
          : 0.0;
  perf.rss_bytes = peak_rss_bytes();
  if (monitor) {
    monitor->finalize(sim.now());
    probe->metrics().merge(monitor->metrics());
  }
  if (!incidents.snapshot().empty()) {
    auto os = open_or_die(flight_path);
    os << incidents.snapshot();
    check_write(os, flight_path);
  }
  const auto r = sw::summarize(sim);

  stats::Table t("per-flow results (rates in flits/cycle, latency in "
                 "cycles/packet)");
  t.header({"flow", "src", "dst", "class", "reserved", "offered", "accepted",
            "mean_lat", "max_lat", "mean_wait", "max_wait", "packets"});
  for (const auto& f : r.flows) {
    t.row()
        .cell(static_cast<std::uint64_t>(f.flow))
        .cell(static_cast<std::uint64_t>(f.src))
        .cell(static_cast<std::uint64_t>(f.dst))
        .cell(std::string(to_string(f.cls)))
        .cell(f.reserved_rate, 3)
        .cell(f.offered_rate, 4)
        .cell(f.accepted_rate, 4)
        .cell(f.mean_latency, 1)
        .cell(f.max_latency, 0)
        .cell(f.mean_wait, 1)
        .cell(f.max_wait, 0)
        .cell(f.delivered_packets);
  }
  t.render(std::cout, csv);

  stats::Table ch("per-output channel occupancy (fractions of measured "
                  "cycles)");
  ch.header({"output", "arbitration", "transfer", "idle"});
  for (OutputId o = 0; o < radix; ++o) {
    const auto u = sim.channel_usage(o);
    if (u.arbitration_cycles == 0 && u.transfer_cycles == 0) continue;
    const double cycles = static_cast<double>(r.measured_cycles);
    ch.row()
        .cell(static_cast<std::uint64_t>(o))
        .cell(static_cast<double>(u.arbitration_cycles) / cycles, 4)
        .cell(static_cast<double>(u.transfer_cycles) / cycles, 4)
        .cell(1.0 -
                  static_cast<double>(u.arbitration_cycles +
                                      u.transfer_cycles) /
                      cycles,
              4);
  }
  ch.render(std::cout, csv);
  if (!csv) {
    std::cout << "total accepted: " << r.total_accepted_rate
              << " flits/cycle over " << r.measured_cycles << " cycles\n";
    std::cout << "perf: " << static_cast<long>(perf.cycles_per_sec)
              << " cycles/s over " << repeat << " repeat(s), peak RSS "
              << perf.rss_bytes / 1024 << " KiB\n";
  }
  if (monitor && !csv) {
    monitor->write_summary(std::cout);
    if (!incidents.snapshot().empty()) {
      std::cout << "flight recorder: dumped " << incidents.snapshot_events()
                << " events to " << flight_path << "\n";
    }
  }
  if (!csv && (injector || scrubber)) {
    std::cout << "faults:";
    if (injector) std::cout << " " << injector->log().size() << " injected";
    if (injector && scrubber) std::cout << " |";
    if (scrubber) {
      std::cout << " scrub " << scrubber->passes() << " passes, "
                << scrubber->repairs() << " repairs";
    }
    std::cout << "\n";
  }

  if (tracer) {
    tracer->finish();
    if (!tracer->ok()) {
      throw std::runtime_error("write failure on trace file '" + trace_path +
                               "'");
    }
    if (!csv) {
      std::cout << "trace: " << trace_path << " (" << tracer->emitted()
                << " events";
      if (tracer->dropped() > 0) {
        std::cout << ", " << tracer->dropped() << " dropped by --trace-limit";
      }
      std::cout << ")\n";
    }
  }
  if (!metrics_path.empty()) {
    auto os = open_or_die(metrics_path);
    os << "{\"schema\":\"ssq.metrics.v1\",\"workload\":"
       << obs::json_quote(workload_path) << ",\"snapshots\":";
    sampler->write_json(os);
    os << ",\"metrics\":";
    probe->metrics().write_json(os);
    os << "}\n";
    check_write(os, metrics_path);
    if (!csv) std::cout << "metrics: " << metrics_path << "\n";
  }
  if (!json_path.empty()) {
    auto os = open_or_die(json_path);
    write_json_summary(os, workload_path, mode_name, warmup, sim, r, perf,
                       monitor);
    check_write(os, json_path);
    if (!csv) std::cout << "summary: " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssq_sim: error: %s\n", e.what());
    return 1;
  }
}
