// ssq_fuzz — differential-oracle scenario fuzzer for the SSVC switch.
//
// Generates deterministic randomized scenarios (config x workload x fault
// plan), runs each under the three-way differential check (reference model,
// CrossbarSwitch, bit-level circuit arbiter) plus the always-on invariants,
// shrinks any failure to a minimal repro file, and exits nonzero. Replay a
// repro with --replay=FILE; docs/TESTING.md walks through the workflow.
//
// Exit codes: 0 all scenarios passed, 1 divergence found, 2 bad usage/config,
// 130 interrupted by SIGINT/SIGTERM (partial totals reported; no repro).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arb/matching.hpp"
#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/trace.hpp"
#include "exec/thread_pool.hpp"
#include "sim/atomic_file.hpp"
#include "sim/error.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/streaming.hpp"
#include "stats/table.hpp"

#include "cli.hpp"

namespace {

using namespace ssq;

constexpr const char* kHelp = R"(usage: ssq_fuzz [options]

Randomized differential testing of the SSVC switch: every grant is checked
against an independent reference model and the bit-level circuit arbiter;
per-cycle invariants (single grant per port, GL policing bound, counter-cap
safety, packet conservation) run in every mode, faults included.

Campaign:
  --scenarios=N           scenarios to run (default 200)
  --seed=N                campaign base seed (default 1); equal seeds replay
                          the exact same scenario sequence
  --jobs=N                run the campaign on N threads (default 1; 0 = all
                          hardware threads). Scenario RNG streams are
                          per-index, results are reported in index order and
                          the first failure is the lowest failing index, so
                          verdicts and repros are byte-identical at any N
  --time-budget=SECONDS   stop starting new scenarios after this much wall
                          clock (default 0 = no budget)

  SIGINT/SIGTERM cancel cooperatively: no new scenarios are dispatched, the
  completed index-prefix is reported, and the exit code is 130.

Checking:
  --no-circuit            skip the bit-level circuit arbitration leg
  --no-state              skip the deep per-cycle arbiter state comparison
  --monitor               attach the online QoS conformance monitor to every
                          scenario (GB share, GL Eq. (1) wait, BE fairness —
                          see docs/OBSERVABILITY.md). A fault-free scenario
                          with a GB or GL violation fails the campaign (kind
                          qos_violation) and its flight-recorder dump lands
                          next to the repro file
  --no-fast-forward       run every scenario fully stepped (disable the
                          idle-cycle fast-forward). Verdicts, stdout and
                          repros are byte-identical either way — diffing a
                          campaign against its --no-fast-forward twin is the
                          event-horizon regression smoke
  --sparse                derate every generated scenario into its sparse
                          long-horizon twin (8x the cycles, 1/20th the
                          injection rates; faults, scrub and monitor config
                          untouched). The same seed still replays the same
                          campaign; combined with --no-fast-forward this is
                          the campaign-level fast-forward measurement
  --engine=NAME           force every generated scenario onto one matching
                          engine (islip|qps|swqps|ssvc|none). Engine runs are
                          checked invariants-only plus the progress guard —
                          see docs/SCHEDULING.md
  --plant=BUG             plant a deliberate defect (self-test: the fuzzer
                          must catch it). BUG is one of gb_vtick_off_by_one,
                          lrg_no_move_to_back, gl_allowance_off_by_one,
                          skip_epoch_wrap, or engine_starve (swaps in a
                          never-matching engine; the progress guard must call
                          starvation)

Telemetry:
  --heartbeat=SECONDS     emit one ssq.fuzz.heartbeat.v1 JSONL progress line
                          on stderr roughly every SECONDS of wall clock
                          (scenarios/s, verdicts, violation totals); stdout
                          stays byte-identical at any --jobs

Failures:
  --repro-dir=DIR         write shrunk repro files here (default .)
  --no-shrink             keep the first failing scenario as-is

Replay and corpus authoring:
  --replay=FILE           run one scenario file instead of a campaign
  --trace=FILE            with --replay: write the scenario's golden trace
                          to FILE ('-' = stdout) and exit (no checking)
  --emit=N --write=FILE   serialise generated scenario N to FILE and exit

  --quiet                 only print failures and the final summary
  --help                  print this message and exit
)";

/// Cooperative shutdown: SIGINT/SIGTERM set the token, the thread pool stops
/// claiming new scenarios, and the campaign reports the completed prefix.
/// CancelToken::cancel is a lock-free atomic store, so it is safe to call
/// from a signal handler.
exec::CancelToken g_cancel;

extern "C" void fuzz_on_signal(int) { g_cancel.cancel(); }

void install_cancel_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = fuzz_on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

using cli::opt_value;
using cli::parse_uint;

check::PlantedBug parse_bug(const std::string& value) {
  for (const auto b :
       {check::PlantedBug::GbVtickOffByOne, check::PlantedBug::LrgNoMoveToBack,
        check::PlantedBug::GlAllowanceOffByOne, check::PlantedBug::SkipEpochWrap,
        check::PlantedBug::EngineStarve}) {
    if (value == check::to_string(b)) return b;
  }
  throw ConfigError("unknown --plant bug '" + value + "'");
}

void report_failure(const check::Scenario& s, const check::RunResult& r) {
  std::cout << "FAIL " << s.name << ": " << r.kind << " at cycle "
            << r.fail_cycle << " output " << r.output << "\n"
            << r.detail << "\n";
}

/// A fault-free scenario must be conformant: the generator only emits
/// admissible reservations, so a GB or GL violation under --monitor is a
/// finding in its own right, even when every grant matched the reference.
bool unexpected_violation(bool has_faults, const check::RunResult& r) {
  return !r.failed && !has_faults && r.violations_gb + r.violations_gl > 0;
}

/// Writes `dump` (a bounded flight-recorder JSONL snapshot) next to a repro.
/// Atomic (tmp + rename): a crash or SIGKILL mid-write never leaves a
/// half-written dump behind — the file either exists complete or not at all.
void write_flight_dump(const std::string& path, const std::string& dump) {
  if (dump.empty()) return;
  if (!write_file_atomic(path, dump)) {
    std::cerr << "warning: could not write flight dump to '" << path << "'\n";
  } else {
    std::cout << "flight dump written to " << path << "\n";
  }
}

/// Serialises and atomically writes a repro scenario. Returns false (after a
/// warning) on I/O failure; the campaign still exits 1 either way.
bool write_repro(const std::string& path, const check::Scenario& s) {
  std::ostringstream body;
  check::write_scenario(body, s);
  if (!write_file_atomic(path, body.str())) {
    std::cerr << "warning: could not write repro to '" << path << "'\n";
    return false;
  }
  return true;
}

/// Running campaign totals; per-scenario Streaming accumulators are merged
/// in index order, so any --jobs value reports identical aggregates.
struct CampaignStats {
  stats::Streaming grants;
  stats::Streaming delivered;
  std::uint64_t violations_gb = 0;
  std::uint64_t violations_gl = 0;
  std::uint64_t violations_be = 0;
  std::uint64_t windows = 0;
  std::uint64_t faulted = 0;

  void absorb(bool has_faults, const check::RunResult& r) {
    grants.add(static_cast<double>(r.grants_checked));
    delivered.add(static_cast<double>(r.delivered));
    violations_gb += r.violations_gb;
    violations_gl += r.violations_gl;
    violations_be += r.violations_be;
    windows += r.windows_checked;
    if (has_faults) ++faulted;
  }
};

void emit_heartbeat(const CampaignStats& c, std::uint64_t ran,
                    double elapsed_s) {
  const double rate = elapsed_s > 0.0
                          ? static_cast<double>(ran) / elapsed_s
                          : 0.0;
  std::fprintf(stderr,
               "{\"schema\":\"ssq.fuzz.heartbeat.v1\",\"scenarios\":%llu,"
               "\"elapsed_s\":%.3f,\"scenarios_per_sec\":%.2f,"
               "\"grants\":%.0f,\"delivered\":%.0f,\"faulted\":%llu,"
               "\"windows\":%llu,\"violations\":{\"gb\":%llu,\"gl\":%llu,"
               "\"be\":%llu}}\n",
               static_cast<unsigned long long>(ran), elapsed_s, rate,
               c.grants.sum(), c.delivered.sum(),
               static_cast<unsigned long long>(c.faulted),
               static_cast<unsigned long long>(c.windows),
               static_cast<unsigned long long>(c.violations_gb),
               static_cast<unsigned long long>(c.violations_gl),
               static_cast<unsigned long long>(c.violations_be));
}

/// Means of `y` over at most `buckets` equal index ranges (campaign-profile
/// downsampling for the ascii plot).
std::vector<double> bucket_means(const std::vector<double>& y,
                                 std::size_t buckets) {
  if (y.size() <= buckets) return y;
  std::vector<double> out;
  out.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t from = b * y.size() / buckets;
    const std::size_t to = (b + 1) * y.size() / buckets;
    double sum = 0.0;
    for (std::size_t i = from; i < to; ++i) sum += y[i];
    out.push_back(sum / static_cast<double>(to - from));
  }
  return out;
}

void render_campaign_summary(const CampaignStats& c, std::uint64_t ran,
                             bool monitor,
                             const std::vector<double>& grants_profile) {
  stats::Table t("campaign conformance summary");
  t.header({"metric", "total", "mean/scenario", "max"});
  t.row()
      .cell(std::string("grants_checked"))
      .cell(static_cast<std::uint64_t>(c.grants.sum()))
      .cell(c.grants.mean(), 1)
      .cell(c.grants.count() ? c.grants.max() : 0.0, 0);
  t.row()
      .cell(std::string("packets_delivered"))
      .cell(static_cast<std::uint64_t>(c.delivered.sum()))
      .cell(c.delivered.mean(), 1)
      .cell(c.delivered.count() ? c.delivered.max() : 0.0, 0);
  if (monitor) {
    const double denom = ran ? static_cast<double>(ran) : 1.0;
    t.row()
        .cell(std::string("windows_checked"))
        .cell(c.windows)
        .cell(static_cast<double>(c.windows) / denom, 1)
        .cell(std::string("-"));
    t.row()
        .cell(std::string("violations_gb"))
        .cell(c.violations_gb)
        .cell(static_cast<double>(c.violations_gb) / denom, 3)
        .cell(std::string("-"));
    t.row()
        .cell(std::string("violations_gl"))
        .cell(c.violations_gl)
        .cell(static_cast<double>(c.violations_gl) / denom, 3)
        .cell(std::string("-"));
    t.row()
        .cell(std::string("violations_be"))
        .cell(c.violations_be)
        .cell(static_cast<double>(c.violations_be) / denom, 3)
        .cell(std::string("-"));
  }
  t.render(std::cout, /*csv=*/false);
  if (grants_profile.size() >= 2) {
    stats::AsciiPlot plot("campaign profile: grants checked per scenario", 8);
    plot.add_series("grants", bucket_means(grants_profile, 48), '*');
    plot.x_labels("scenario 0",
                  "scenario " + std::to_string(grants_profile.size() - 1));
    plot.render(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t scenarios = 200;
  std::uint64_t base_seed = 1;
  std::uint64_t time_budget_s = 0;
  std::uint64_t heartbeat_s = 0;  // 0 = no heartbeat telemetry
  std::uint64_t jobs = 1;
  check::CheckOptions opts;
  std::optional<arb::MatchKind> engine_override;
  bool fast_forward = true;
  bool sparse = false;
  bool do_shrink = true;
  bool quiet = false;
  std::string repro_dir = ".";
  std::string replay_path;
  std::string trace_path;
  std::string write_path;
  std::optional<std::uint64_t> emit_index;

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (arg == "--help") {
        std::cout << kHelp;
        return 0;
      } else if (auto v = opt_value(arg, "--scenarios")) {
        scenarios = parse_uint<std::uint64_t>(*v, "--scenarios");
      } else if (auto v2 = opt_value(arg, "--seed")) {
        base_seed = parse_uint<std::uint64_t>(*v2, "--seed");
      } else if (auto v3 = opt_value(arg, "--time-budget")) {
        time_budget_s = parse_uint<std::uint64_t>(*v3, "--time-budget");
      } else if (auto vj = opt_value(arg, "--jobs")) {
        jobs = parse_uint<std::uint64_t>(*vj, "--jobs");
        if (jobs == 0) jobs = exec::ThreadPool::hardware_threads();
        if (jobs > 512) throw ConfigError("--jobs too large (max 512)");
      } else if (arg == "--no-circuit") {
        opts.circuit = false;
      } else if (arg == "--no-state") {
        opts.state_compare = false;
      } else if (arg == "--no-fast-forward") {
        fast_forward = false;
      } else if (arg == "--sparse") {
        sparse = true;
      } else if (arg == "--monitor") {
        opts.monitor = true;
        opts.flight_recorder = 256;
      } else if (auto vh = opt_value(arg, "--heartbeat")) {
        heartbeat_s = parse_uint<std::uint64_t>(*vh, "--heartbeat");
        if (heartbeat_s == 0) throw ConfigError("--heartbeat must be >= 1");
      } else if (auto ve = opt_value(arg, "--engine")) {
        engine_override = arb::parse_match_kind(*ve);
        if (*engine_override == arb::MatchKind::Starve) {
          throw ConfigError(
              "--engine=starve would fail every scenario; use "
              "--plant=engine_starve for the guard self-test");
        }
      } else if (auto v4 = opt_value(arg, "--plant")) {
        opts.bug = parse_bug(*v4);
      } else if (auto v5 = opt_value(arg, "--repro-dir")) {
        repro_dir = *v5;
      } else if (arg == "--no-shrink") {
        do_shrink = false;
      } else if (auto v6 = opt_value(arg, "--replay")) {
        replay_path = *v6;
      } else if (auto v7 = opt_value(arg, "--trace")) {
        trace_path = *v7;
      } else if (auto v8 = opt_value(arg, "--emit")) {
        emit_index = parse_uint<std::uint64_t>(*v8, "--emit");
      } else if (auto v9 = opt_value(arg, "--write")) {
        write_path = *v9;
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        std::cerr << "unknown option '" << arg << "' (--help for the list)\n";
        return 2;
      }
    }

    // Scenario source for campaign/emit modes: generated by index, then the
    // --engine override (if any) is applied on top. The override composes
    // with the generated config — the same traffic/fault draw runs on the
    // requested engine, so sweeping --engine across seeds is a differential
    // sweep of the engines themselves.
    const auto make_scenario = [&](std::uint64_t index) {
      check::Scenario s = check::generate_scenario(index, base_seed);
      if (sparse) {
        // Deterministic derate: same draws, same faults, same checks — only
        // the offered load shrinks and the horizon stretches, so idle
        // stretches dominate and fast-forward gets something to skip.
        // Rates only go down, so admissibility is preserved.
        s.cycles *= 8;
        for (auto& f : s.flows) f.inject_rate *= 0.05;
      }
      s.fast_forward = fast_forward;
      if (engine_override.has_value()) {
        s.matching_engine = *engine_override;
        if (*engine_override != arb::MatchKind::None) {
          s.packet_chaining = false;  // invalid under an engine
        }
      }
      return s;
    };

    // Corpus authoring: serialise one generated scenario and exit.
    if (emit_index.has_value()) {
      if (write_path.empty()) {
        throw ConfigError("--emit needs --write=FILE");
      }
      const check::Scenario s = make_scenario(*emit_index);
      std::ostringstream body;
      check::write_scenario(body, s);
      if (!write_file_atomic(write_path, body.str())) {
        throw ConfigError("cannot write '" + write_path + "'");
      }
      return 0;
    }

    // Replay mode: one scenario file, optionally just dumping its trace.
    if (!replay_path.empty()) {
      check::Scenario s = check::load_scenario(replay_path);
      s.fast_forward = fast_forward;
      if (!trace_path.empty()) {
        const std::string trace = check::golden_trace(s);
        if (trace_path == "-") {
          std::cout << trace;
          if (!std::cout.flush()) return 2;
        } else if (!write_file_atomic(trace_path, trace)) {
          throw ConfigError("write failure on '" + trace_path + "'");
        }
        return 0;
      }
      const check::RunResult r = check::run_scenario(s, opts);
      if (r.failed) {
        report_failure(s, r);
        write_flight_dump(replay_path + ".flight.jsonl", r.flight_dump);
        return 1;
      }
      if (unexpected_violation(s.has_faults(), r)) {
        std::cout << "FAIL " << s.name << ": qos_violation (gb="
                  << r.violations_gb << " gl=" << r.violations_gl
                  << " over " << r.windows_checked
                  << " windows, no faults injected)\n";
        write_flight_dump(replay_path + ".flight.jsonl", r.flight_dump);
        return 1;
      }
      if (!quiet) {
        std::cout << "ok " << s.name << ": " << r.grants_checked
                  << " grants checked, " << r.delivered
                  << " packets delivered";
        if (opts.monitor) {
          std::cout << ", " << r.windows_checked << " windows ("
                    << r.violations_gb + r.violations_gl + r.violations_be
                    << " violations)";
        }
        std::cout << "\n";
      }
      return 0;
    }

    // Campaign mode. Scenarios are processed in index-ordered blocks of
    // jobs*4 on the pool (inline on this thread at --jobs=1). Scenario
    // generation and execution depend only on (index, base_seed), results
    // are reported in index order and a failing campaign acts on the LOWEST
    // failing index, so verdicts, stdout, and repro files are byte-identical
    // at any --jobs value.
    const auto t0 = std::chrono::steady_clock::now();
    install_cancel_handlers();
    exec::ThreadPool pool(static_cast<unsigned>(jobs));
    const std::uint64_t block = jobs * 4;
    std::uint64_t ran = 0;
    bool interrupted = false;
    CampaignStats campaign;
    std::vector<double> grants_profile;  // per-scenario, index order
    auto last_heartbeat = t0;
    for (std::uint64_t start = 0; start < scenarios; start += block) {
      if (g_cancel.cancelled()) {
        interrupted = true;
        break;
      }
      if (time_budget_s != 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        if (elapsed >= 0 &&
            static_cast<std::uint64_t>(elapsed) >= time_budget_s) {
          if (!quiet) {
            std::cout << "time budget reached after " << ran
                      << " scenarios\n";
          }
          break;
        }
      }
      const std::uint64_t count = std::min(block, scenarios - start);
      struct Outcome {
        check::RunResult result;
        bool has_faults = false;
        std::string line;  // buffered per-scenario "ok" report
      };
      // On SIGINT/SIGTERM the pool stops dispatching new scenarios; the
      // completed set is always the index prefix [0, done), so partial
      // totals stay deterministic in index order.
      std::size_t done = 0;
      const std::vector<Outcome> outcomes = exec::run_batch<Outcome>(
          pool, static_cast<std::size_t>(count),
          [&](std::size_t k) {
            const check::Scenario s = make_scenario(start + k);
            Outcome o;
            o.has_faults = s.has_faults();
            o.result = check::run_scenario(s, opts);
            if (!o.result.failed && !quiet) {
              std::ostringstream os;
              os << "ok " << s.name << " radix=" << s.radix
                 << " cycles=" << s.cycles
                 << " grants=" << o.result.grants_checked << "\n";
              o.line = os.str();
            }
            return o;
          },
          &g_cancel, &done);
      if (done < count) interrupted = true;
      for (std::uint64_t k = 0; k < done; ++k) {
        const std::uint64_t i = start + k;
        const check::RunResult& r = outcomes[k].result;
        ++ran;
        campaign.absorb(outcomes[k].has_faults, r);
        grants_profile.push_back(static_cast<double>(r.grants_checked));
        if (unexpected_violation(outcomes[k].has_faults, r)) {
          // A conformance finding, not a divergence: the differential
          // oracle passed, so the shrinker (whose predicate is "run_scenario
          // fails") cannot reproduce it — keep the scenario as generated.
          const check::Scenario s = make_scenario(i);
          std::cout << "FAIL " << s.name << ": qos_violation (gb="
                    << r.violations_gb << " gl=" << r.violations_gl
                    << " over " << r.windows_checked
                    << " windows, no faults injected)\n";
          const std::string stem = repro_dir + "/repro-" +
                                   std::to_string(base_seed) + "-" +
                                   std::to_string(i);
          std::error_code ec;  // best-effort; the write below reports failure
          std::filesystem::create_directories(repro_dir, ec);
          if (write_repro(stem + ".scenario", s)) {
            std::cout << "repro written to " << stem << ".scenario (replay: "
                      << "ssq_fuzz --monitor --replay=" << stem
                      << ".scenario)\n";
          }
          write_flight_dump(stem + ".flight.jsonl", r.flight_dump);
          return 1;
        }
        if (!r.failed) {
          if (!quiet) std::cout << outcomes[k].line;
          continue;
        }
        // Lowest failing index: regenerate the scenario and shrink serially,
        // exactly as the serial campaign would have.
        const check::Scenario s = make_scenario(i);
        report_failure(s, r);
        check::Scenario repro = s;
        if (do_shrink) {
          const check::ShrinkResult sh = check::shrink(s, opts);
          repro = sh.scenario;
          std::cout << "shrunk to " << repro.cycles << " cycles, "
                    << repro.flows.size() << " flows ("
                    << sh.accepted << "/" << sh.attempts
                    << " reductions accepted); failure now: "
                    << sh.failure.kind << " at cycle "
                    << sh.failure.fail_cycle << "\n";
        }
        const std::string path = repro_dir + "/repro-" +
                                 std::to_string(base_seed) + "-" +
                                 std::to_string(i) + ".scenario";
        std::error_code ec;  // best-effort; the write below reports failure
        std::filesystem::create_directories(repro_dir, ec);
        if (write_repro(path, repro)) {
          std::cout << "repro written to " << path
                    << " (replay: ssq_fuzz --replay=" << path << ")\n";
        }
        // Incident snapshot from the *original* failing run (the shrunk
        // repro re-fails on replay and produces its own).
        write_flight_dump(path + ".flight.jsonl", r.flight_dump);
        return 1;
      }
      if (heartbeat_s != 0) {
        const auto now = std::chrono::steady_clock::now();
        if (std::chrono::duration_cast<std::chrono::seconds>(
                now - last_heartbeat)
                .count() >= static_cast<long>(heartbeat_s)) {
          emit_heartbeat(campaign, ran,
                         std::chrono::duration<double>(now - t0).count());
          last_heartbeat = now;
        }
      }
    }
    const auto total_s = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (heartbeat_s != 0) {
      emit_heartbeat(campaign, ran,
                     static_cast<double>(total_s) / 1000.0);
    }
    if (interrupted) {
      std::cout << "interrupted after " << ran << "/" << scenarios
                << " scenarios (no failures found): "
                << static_cast<std::uint64_t>(campaign.grants.sum())
                << " grants checked, "
                << static_cast<double>(total_s) / 1000.0 << "s\n";
      return 130;
    }
    if (!quiet) {
      render_campaign_summary(campaign, ran, opts.monitor, grants_profile);
    }
    std::cout << "all " << ran << " scenarios passed: "
              << static_cast<std::uint64_t>(campaign.grants.sum())
              << " grants checked, "
              << static_cast<std::uint64_t>(campaign.delivered.sum())
              << " packets delivered";
    if (opts.monitor) {
      std::cout << ", " << campaign.windows << " windows ("
                << campaign.violations_gb + campaign.violations_gl +
                       campaign.violations_be
                << " violations)";
    }
    std::cout << ", " << static_cast<double>(total_s) / 1000.0 << "s\n";
    return 0;
  } catch (const ConfigError& e) {
    std::cerr << "ssq_fuzz: " << e.what() << "\n";
    return 2;
  }
}
