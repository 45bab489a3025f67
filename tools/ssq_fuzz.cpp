// ssq_fuzz — differential-oracle scenario fuzzer for the SSVC switch.
//
// Generates deterministic randomized scenarios (config x workload x fault
// plan), runs each under the three-way differential check (reference model,
// CrossbarSwitch, bit-level circuit arbiter) plus the always-on invariants,
// shrinks any failure to a minimal repro file, and exits nonzero. Replay a
// repro with --replay=FILE; docs/TESTING.md walks through the workflow.
//
// The work unit (scenario construction, verdict, repro files) and the loop
// over units (campaign::run_shard) are ssq_campaign's, reached through the
// grid token each checking flag maps to; this file owns only the fuzzer's
// policy around them, in the runner's hooks, without the journal.
//
// Exit codes: 0 all scenarios passed, 1 divergence found, 2 bad usage/config,
// 130 interrupted by SIGINT/SIGTERM (partial totals reported; no repro).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/trace.hpp"
#include "exec/thread_pool.hpp"
#include "sim/atomic_file.hpp"
#include "sim/error.hpp"
#include "stats/ascii_plot.hpp"
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
  --scenarios=N           scenarios to run, N >= 1 (default 200; with
                          --time-budget and no --scenarios, unbounded: the
                          budget ends the run)
  --seed=N                campaign base seed (default 1); equal seeds replay
                          the exact same scenario sequence
  --jobs=N                run the campaign on N threads (default 1; 0 = all
                          hardware threads). Scenario RNG streams are
                          per-index, results are reported in index order and
                          the first failure is the lowest failing index, so
                          verdicts and repros are byte-identical at any N
  --time-budget=SECONDS   stop starting new scenarios after this much wall
                          clock (default 0 = no budget); an explicit
                          --scenarios still caps the run

  SIGINT/SIGTERM cancel cooperatively: no new scenarios are dispatched, the
  completed index-prefix is reported, and the exit code is 130.

Checking (every flag but --plant is an ssq_campaign --grid token; see
docs/CAMPAIGN.md):
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

Replay and corpus authoring (each mode refuses, exit 2, any option it does
not read):
  --replay=FILE           run one scenario file instead of a campaign; also
                          reads --plant, --quiet, --monitor, --no-circuit,
                          --no-state and --no-fast-forward
  --trace=FILE            with --replay: write the scenario's golden trace
                          to FILE ('-' = stdout) and exit (no checking); also
                          reads --no-fast-forward
  --emit=N --write=FILE   serialise generated scenario N to FILE and exit;
                          also reads --seed, --sparse and --engine

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
            << r.fail_cycle;
  if (r.output != kNoPort) std::cout << " output " << r.output;
  std::cout << "\n" << r.detail << "\n";
}

void emit_heartbeat(const campaign::Report& r, double elapsed_s) {
  const double rate = elapsed_s > 0.0
                          ? static_cast<double>(r.completed) / elapsed_s
                          : 0.0;
  std::fprintf(stderr,
               "{\"schema\":\"ssq.fuzz.heartbeat.v1\",\"scenarios\":%llu,"
               "\"elapsed_s\":%.3f,\"scenarios_per_sec\":%.2f,"
               "\"grants\":%llu,\"delivered\":%llu,\"faulted\":%llu,"
               "\"windows\":%llu,\"violations\":{\"gb\":%llu,\"gl\":%llu,"
               "\"be\":%llu}}\n",
               static_cast<unsigned long long>(r.completed), elapsed_s, rate,
               static_cast<unsigned long long>(r.grants),
               static_cast<unsigned long long>(r.delivered),
               static_cast<unsigned long long>(r.faulted),
               static_cast<unsigned long long>(r.windows),
               static_cast<unsigned long long>(r.violations_gb),
               static_cast<unsigned long long>(r.violations_gl),
               static_cast<unsigned long long>(r.violations_be));
}

/// What the summary shows beyond the Report's totals: grants per scenario
/// in index order (for the profile plot) and the peak deliveries.
struct Profile {
  std::vector<double> grants;
  std::uint64_t max_delivered = 0;
};

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

void render_campaign_summary(const campaign::Report& r, bool monitor,
                             const Profile& p) {
  const double denom = r.completed ? static_cast<double>(r.completed) : 1.0;
  stats::Table t("campaign conformance summary");
  t.header({"metric", "total", "mean/scenario", "max"});
  t.row()
      .cell(std::string("grants_checked"))
      .cell(r.grants)
      .cell(static_cast<double>(r.grants) / denom, 1)
      .cell(p.grants.empty()
                ? 0.0
                : *std::max_element(p.grants.begin(), p.grants.end()),
            0);
  t.row()
      .cell(std::string("packets_delivered"))
      .cell(r.delivered)
      .cell(static_cast<double>(r.delivered) / denom, 1)
      .cell(static_cast<double>(p.max_delivered), 0);
  if (monitor) {
    const struct {
      const char* name;
      std::uint64_t total;
      int digits;
    } rows[] = {{"windows_checked", r.windows, 1},
                {"violations_gb", r.violations_gb, 3},
                {"violations_gl", r.violations_gl, 3},
                {"violations_be", r.violations_be, 3}};
    for (const auto& row : rows) {
      t.row()
          .cell(std::string(row.name))
          .cell(row.total)
          .cell(static_cast<double>(row.total) / denom, row.digits)
          .cell(std::string("-"));
    }
  }
  t.render(std::cout, /*csv=*/false);
  if (p.grants.size() >= 2) {
    stats::AsciiPlot plot("campaign profile: grants checked per scenario", 8);
    plot.add_series("grants", bucket_means(p.grants, 48), '*');
    plot.x_labels("scenario 0",
                  "scenario " + std::to_string(p.grants.size() - 1));
    plot.render(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::uint64_t> scenarios_arg;  // --scenarios, if given
  std::uint64_t base_seed = 1;
  std::uint64_t time_budget_s = 0;
  std::uint64_t heartbeat_s = 0;  // 0 = no heartbeat telemetry
  std::uint64_t jobs = 1;
  std::string grid;  // the grid tokens the checking flags map to, '+'-joined
  check::PlantedBug bug = check::PlantedBug::None;
  bool do_shrink = true;
  bool quiet = false;
  std::string repro_dir = ".";
  std::string replay_path;
  std::string trace_path;
  std::string write_path;
  std::optional<std::uint64_t> emit_index;
  std::vector<std::string_view> given;  // option names, "=value" cut off

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      given.push_back(arg.substr(0, arg.find('=')));
      if (arg == "--help") {
        std::cout << kHelp;
        return 0;
      } else if (auto v = opt_value(arg, "--scenarios")) {
        scenarios_arg = cli::parse_positive<std::uint64_t>(*v, "--scenarios");
      } else if (auto v2 = opt_value(arg, "--seed")) {
        base_seed = parse_uint<std::uint64_t>(*v2, "--seed");
      } else if (auto v3 = opt_value(arg, "--time-budget")) {
        time_budget_s = parse_uint<std::uint64_t>(*v3, "--time-budget");
      } else if (auto vj = opt_value(arg, "--jobs")) {
        jobs = cli::parse_jobs(*vj, "--jobs");
      } else if (arg == "--no-circuit") {
        grid += "+no-circuit";
      } else if (arg == "--no-state") {
        grid += "+no-state";
      } else if (arg == "--no-fast-forward") {
        grid += "+noff";
      } else if (arg == "--sparse") {
        grid += "+sparse";
      } else if (arg == "--monitor") {
        grid += "+monitor";
      } else if (auto vh = opt_value(arg, "--heartbeat")) {
        heartbeat_s = cli::parse_positive<std::uint64_t>(*vh, "--heartbeat");
      } else if (auto ve = opt_value(arg, "--engine")) {
        grid += "+engine=" + std::string(*ve);
      } else if (auto v4 = opt_value(arg, "--plant")) {
        bug = parse_bug(*v4);
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

    // The unit every mode runs: exactly what an ssq_campaign grid point
    // with this label runs, so parse_grid_point is the one validator.
    campaign::GridPoint point =
        campaign::parse_grid_point(grid.empty() ? "default" : grid.substr(1));
    point.opts.bug = bug;
    // A time budget alone runs until the budget ends it.
    const bool bounded = scenarios_arg.has_value() || time_budget_s == 0;
    const std::uint64_t scenarios =
        bounded ? scenarios_arg.value_or(200) : UINT64_MAX;

    // A mode's option given without its mode is refused, not ignored.
    if (!trace_path.empty() && replay_path.empty()) {
      throw ConfigError("--trace needs --replay=FILE");
    }
    if (!write_path.empty() && !emit_index.has_value()) {
      throw ConfigError("--write needs --emit=N");
    }
    // The emit and replay modes read only their own options; campaign mode
    // reads all the rest.
    const auto refuse_unread =
        [&given](std::string_view mode,
                 std::initializer_list<std::string_view> reads) {
          for (const std::string_view name : given) {
            if (std::find(reads.begin(), reads.end(), name) == reads.end()) {
              throw ConfigError(std::string(name) + " is not read by " +
                                std::string(mode));
            }
          }
        };
    if (emit_index.has_value()) {
      refuse_unread("--emit",
                    {"--emit", "--write", "--seed", "--sparse", "--engine"});
    } else if (!trace_path.empty()) {
      refuse_unread("--replay --trace",
                    {"--replay", "--trace", "--no-fast-forward"});
    } else if (!replay_path.empty()) {
      refuse_unread("--replay",
                    {"--replay", "--no-fast-forward", "--monitor",
                     "--no-circuit", "--no-state", "--plant", "--quiet"});
    }

    // Corpus authoring: serialise one generated scenario and exit.
    if (emit_index.has_value()) {
      if (write_path.empty()) {
        throw ConfigError("--emit needs --write=FILE");
      }
      std::ostringstream body;
      check::write_scenario(
          body, campaign::unit_scenario(point, base_seed, *emit_index));
      if (!write_file_atomic(write_path, body.str())) {
        throw ConfigError("cannot write '" + write_path + "'");
      }
      return 0;
    }

    // Replay mode: one scenario file, optionally just dumping its trace.
    if (!replay_path.empty()) {
      check::Scenario s = check::load_scenario(replay_path);
      s.fast_forward = point.fast_forward;
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
      const check::RunResult r = campaign::run_unit(point, s);
      if (r.failed) {
        report_failure(s, r);
        const std::string dump = replay_path + ".flight.jsonl";
        if (!r.flight_dump.empty() && write_file_atomic(dump, r.flight_dump)) {
          std::cout << "flight dump written to " << dump << "\n";
        }
        return 1;
      }
      if (!quiet) {
        std::cout << "ok " << s.name << ": " << r.grants_checked
                  << " grants checked, " << r.delivered
                  << " packets delivered";
        if (point.opts.monitor) {
          std::cout << ", " << r.windows_checked << " windows ("
                    << r.violations_gb + r.violations_gl + r.violations_be
                    << " violations)";
        }
        std::cout << "\n";
      }
      return 0;
    }

    // Campaign mode: one grid point as one shard of a campaign, run with
    // no journal in index-ordered rounds on the pool. Scenario generation
    // and execution depend only on (index, base_seed), the hooks see units
    // in index order and the run stops at the first failure they see, the
    // LOWEST failing index, so verdicts, stdout and repro files are
    // byte-identical at any --jobs value.
    campaign::Manifest m;
    m.base_seed = base_seed;
    m.scenarios = scenarios;
    m.shards = 1;
    m.grid = {point};
    campaign::Report report(m);
    Profile profile;  // filled only for the non-quiet summary
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const auto seconds_since = [](Clock::time_point t) {
      return std::chrono::duration<double>(Clock::now() - t).count();
    };
    campaign::RunnerHooks hooks;
    // SIGINT/SIGTERM and the time budget stop the run between rounds; the
    // units run so far are the index prefix, so partial totals stay
    // deterministic in index order.
    hooks.drain = [&] {
      return g_cancel.cancelled() ||
             (time_budget_s != 0 &&
              seconds_since(t0) >= static_cast<double>(time_budget_s));
    };
    auto last_heartbeat = t0;
    if (heartbeat_s != 0) {
      hooks.beat = [&] {
        if (seconds_since(last_heartbeat) < static_cast<double>(heartbeat_s)) {
          return;
        }
        last_heartbeat = Clock::now();
        emit_heartbeat(report, seconds_since(t0));
      };
    }
    hooks.unit_done = [&](const campaign::Record& done,
                          const check::Scenario& s,
                          const check::RunResult& r) {
      report.add(m, done);
      if (!r.failed) {
        if (!quiet) {
          std::cout << "ok " << s.name << " radix=" << s.radix
                    << " cycles=" << s.cycles
                    << " grants=" << r.grants_checked << "\n";
          profile.grants.push_back(static_cast<double>(r.grants_checked));
          profile.max_delivered = std::max(profile.max_delivered, r.delivered);
        }
        return false;
      }
      // The lowest failing index: shrink serially, exactly as the serial
      // campaign would have. A qos_violation or config_error is the unit's
      // verdict, not run_scenario's, so the shrinker (whose predicate is
      // "run_scenario fails") cannot reproduce it — that scenario ships as
      // generated.
      report_failure(s, r);
      check::Scenario repro = s;
      if (do_shrink && r.kind != "qos_violation" &&
          r.kind != "config_error") {
        const check::ShrinkResult sh = check::shrink(s, point.opts);
        repro = sh.scenario;
        std::cout << "shrunk to " << repro.cycles << " cycles, "
                  << repro.flows.size() << " flows (" << sh.accepted << "/"
                  << sh.attempts << " reductions accepted); failure now: "
                  << sh.failure.kind << " at cycle " << sh.failure.fail_cycle
                  << "\n";
      }
      // The incident snapshot comes from the *original* failing run (a
      // shrunk repro re-fails on replay and produces its own).
      const std::string stem = repro_dir + "/repro-" +
                               std::to_string(base_seed) + "-" +
                               std::to_string(done.j);
      std::error_code ec;  // best-effort; the write below reports failure
      std::filesystem::create_directories(repro_dir, ec);
      if (campaign::write_repro(stem, repro, r)) {
        std::cout << "repro written to " << stem << ".scenario (replay: "
                  << "ssq_fuzz" << (point.opts.monitor ? " --monitor" : "")
                  << " --replay=" << stem << ".scenario)\n";
        if (!r.flight_dump.empty()) {
          std::cout << "flight dump written to " << stem << ".flight.jsonl\n";
        }
      } else {
        std::cerr << "warning: could not write repro to '" << stem
                  << ".scenario'\n";
      }
      return true;
    };
    install_cancel_handlers();
    exec::ThreadPool pool(static_cast<unsigned>(jobs));
    const bool stopped = campaign::run_shard("", m, 0, hooks, &pool) ==
                         campaign::ShardOutcome::Drained;
    if (report.failed != 0) return 1;
    // Whole milliseconds, as the summary line has always printed them.
    const auto total_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - t0);
    const double total_s = static_cast<double>(total_ms.count()) / 1000.0;
    if (heartbeat_s != 0) emit_heartbeat(report, total_s);
    if (stopped && g_cancel.cancelled()) {
      std::cout << "interrupted after " << report.completed;
      if (bounded) std::cout << "/" << scenarios;
      std::cout << " scenarios (no failures found): " << report.grants
                << " grants checked, " << total_s << "s\n";
      return 130;
    }
    if (!quiet) {
      if (stopped) {
        std::cout << "time budget reached after " << report.completed
                  << " scenarios\n";
      }
      render_campaign_summary(report, point.opts.monitor, profile);
    }
    std::cout << "all " << report.completed << " scenarios passed: "
              << report.grants << " grants checked, " << report.delivered
              << " packets delivered";
    if (point.opts.monitor) {
      std::cout << ", " << report.windows << " windows ("
                << report.violations_gb + report.violations_gl +
                       report.violations_be
                << " violations)";
    }
    std::cout << ", " << total_s << "s\n";
    return 0;
  } catch (const ConfigError& e) {
    std::cerr << "ssq_fuzz: " << e.what() << "\n";
    return 2;
  }
}
