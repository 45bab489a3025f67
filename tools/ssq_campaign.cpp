// ssq_campaign — crash-safe, sharded, resumable differential campaigns.
//
// Scales ssq_fuzz from "one process, one run" to a supervised service:
// a manifest (seed range × checking grid, split into shards) executed by
// supervised worker processes journaling every verdict to checksummed
// per-shard checkpoints. kill -9 it, reboot the box, wedge a scenario —
// `--resume` re-runs only unfinished work, wedged scenarios are retried
// with backoff and then quarantined as poisoned-*.scenario repros, and the
// final merged report.json is byte-identical to an uninterrupted run.
// docs/CAMPAIGN.md documents the formats and semantics.
//
// Exit codes: 0 complete (quarantines allowed), 1 complete with failed
// scenarios, 2 bad usage/config, 3 interrupted or gave up (resumable).
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include <limits.h>
#include <unistd.h>

#include "campaign/manifest.hpp"
#include "campaign/service.hpp"
#include "exec/thread_pool.hpp"
#include "sim/error.hpp"

#include "cli.hpp"

namespace {

using namespace ssq;

constexpr const char* kHelp = R"(usage: ssq_campaign <command> [options]

Commands (exactly one):
  --new=DIR               create campaign directory DIR and run it
  --resume=DIR            continue an interrupted/crashed campaign; only
                          scenarios without a checkpointed verdict re-run,
                          and the final report.json is byte-identical to an
                          uninterrupted run
  --status=DIR            print checkpointed progress and exit
  --merge=DIR             merge checkpoints into report.json without running
                          anything (marks resumable if work remains)

Manifest (with --new; immutable afterwards):
  --scenarios=N           scenarios per grid point (default 200)
  --seed=N                scenario-generator base seed (default 1)
  --shards=K              work-unit shards (default 8); shards are the unit
                          of claiming, checkpointing and resume
  --grid=A,B,...          checking configurations; each label combines
                          tokens with '+': default, monitor, no-circuit,
                          no-state, scalar, simd, noff (fully stepped — no
                          idle-cycle fast-forward), engine=<islip|qps|swqps|
                          ssvc> (default "default")
  --max-attempts=N        attempts before a crashing/hanging scenario is
                          quarantined (default 3)
  --scenario-timeout-ms=N watchdog: a worker silent this long is killed and
                          restarted (default 30000)
  --throttle-ms=N         test pacing: sleep before each scenario (default 0)
  --plant-hang=J          test teeth: wedge forever at global unit J
  --plant-crash=J         test teeth: abort() at global unit J

Execution (per invocation; does not affect results):
  --workers=N             supervised worker processes (default 1; 0 = all
                          hardware threads)
  --max-restarts=N        abnormal worker exits before giving up (default 64)
  --backoff-ms=N          base restart backoff, doubled per consecutive
                          restart of a slot, capped at 25x (default 200)
  --quiet                 only errors and the final summary

  --help                  print this message and exit

A campaign directory is self-contained and shareable: point any number of
ssq_campaign processes (or hosts via a shared filesystem) at the same DIR
and they cooperate through shard locks and checkpoints.
)";

using cli::opt_value;
using cli::parse_uint;

std::string self_exe_path() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw ConfigError("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string new_dir, resume_dir, status_dir, merge_dir, worker_dir;
  unsigned worker_id = 0;
  campaign::Manifest m;
  m.grid.clear();
  std::string grid_csv = "default";
  bool manifest_flags = false;  // --resume must not silently redefine work
  campaign::ServiceOptions opts;

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (arg == "--help") {
        std::cout << kHelp;
        return 0;
      } else if (auto v = opt_value(arg, "--new")) {
        new_dir = *v;
      } else if (auto v2 = opt_value(arg, "--resume")) {
        resume_dir = *v2;
      } else if (auto v3 = opt_value(arg, "--status")) {
        status_dir = *v3;
      } else if (auto v4 = opt_value(arg, "--merge")) {
        merge_dir = *v4;
      } else if (auto v5 = opt_value(arg, "--worker")) {
        worker_dir = *v5;
      } else if (auto v6 = opt_value(arg, "--worker-id")) {
        worker_id = parse_uint<unsigned>(*v6, "--worker-id");
      } else if (auto v7 = opt_value(arg, "--scenarios")) {
        m.scenarios = parse_uint<std::uint64_t>(*v7, "--scenarios");
        manifest_flags = true;
      } else if (auto v8 = opt_value(arg, "--seed")) {
        m.base_seed = parse_uint<std::uint64_t>(*v8, "--seed");
        manifest_flags = true;
      } else if (auto v9 = opt_value(arg, "--shards")) {
        m.shards = parse_uint<std::uint64_t>(*v9, "--shards");
        manifest_flags = true;
      } else if (auto v10 = opt_value(arg, "--grid")) {
        grid_csv = *v10;
        manifest_flags = true;
      } else if (auto v11 = opt_value(arg, "--max-attempts")) {
        m.max_attempts = parse_uint<std::uint32_t>(*v11, "--max-attempts");
        manifest_flags = true;
      } else if (auto v12 = opt_value(arg, "--scenario-timeout-ms")) {
        m.scenario_timeout_ms =
            parse_uint<std::uint64_t>(*v12, "--scenario-timeout-ms");
        manifest_flags = true;
      } else if (auto v13 = opt_value(arg, "--throttle-ms")) {
        m.throttle_ms = parse_uint<std::uint64_t>(*v13, "--throttle-ms");
        manifest_flags = true;
      } else if (auto v14 = opt_value(arg, "--plant-hang")) {
        m.planted.push_back({campaign::Plant::Kind::Hang,
                             parse_uint<std::uint64_t>(*v14, "--plant-hang")});
        manifest_flags = true;
      } else if (auto v15 = opt_value(arg, "--plant-crash")) {
        m.planted.push_back({campaign::Plant::Kind::Crash,
                             parse_uint<std::uint64_t>(*v15, "--plant-crash")});
        manifest_flags = true;
      } else if (auto v16 = opt_value(arg, "--workers")) {
        opts.workers = parse_uint<unsigned>(*v16, "--workers");
        if (opts.workers == 0) {
          opts.workers = exec::ThreadPool::hardware_threads();
        }
      } else if (auto v17 = opt_value(arg, "--max-restarts")) {
        opts.max_restarts =
            parse_uint<std::uint64_t>(*v17, "--max-restarts");
      } else if (auto v18 = opt_value(arg, "--backoff-ms")) {
        opts.backoff_base_ms =
            parse_uint<std::uint64_t>(*v18, "--backoff-ms");
        opts.backoff_cap_ms = opts.backoff_base_ms * 25;
      } else if (arg == "--quiet") {
        opts.quiet = true;
      } else {
        std::cerr << "unknown option '" << arg << "' (--help for the list)\n";
        return campaign::kExitUsage;
      }
    }

    const int modes = (new_dir.empty() ? 0 : 1) + (resume_dir.empty() ? 0 : 1) +
                      (status_dir.empty() ? 0 : 1) +
                      (merge_dir.empty() ? 0 : 1) + (worker_dir.empty() ? 0 : 1);
    if (modes != 1) {
      std::cerr << "ssq_campaign: exactly one of --new/--resume/--status/"
                   "--merge is required (--help for usage)\n";
      return campaign::kExitUsage;
    }

    if (!worker_dir.empty()) {
      return campaign::run_worker_loop(worker_dir, worker_id);
    }
    if (!status_dir.empty()) {
      campaign::print_status(std::cout, status_dir,
                             campaign::load_manifest(status_dir));
      return 0;
    }
    if (!merge_dir.empty()) {
      const campaign::Manifest mm = campaign::load_manifest(merge_dir);
      const campaign::Report r =
          campaign::write_reports(merge_dir, mm, campaign::ExecutionStats{});
      std::cout << "merged " << r.completed << "/" << r.total
                << " units into " << merge_dir << "/report.json"
                << (r.complete() ? "" : " (incomplete: resumable)") << "\n";
      return r.complete()
                 ? (r.failed == 0 ? campaign::kExitOk : campaign::kExitFailures)
                 : campaign::kExitResumable;
    }

    opts.exe_path = self_exe_path();
    if (!new_dir.empty()) {
      for (std::size_t pos = 0; pos <= grid_csv.size();) {
        std::size_t comma = grid_csv.find(',', pos);
        if (comma == std::string::npos) comma = grid_csv.size();
        const std::string label = grid_csv.substr(pos, comma - pos);
        if (!label.empty()) m.grid.push_back(campaign::parse_grid_point(label));
        pos = comma + 1;
      }
      campaign::init_campaign_dir(new_dir, m);
      return campaign::supervise(new_dir, m, opts);
    }
    // --resume: the manifest on disk is authoritative; manifest-shaping
    // flags are rejected to make "resume continues the same campaign"
    // impossible to get wrong silently.
    if (manifest_flags) {
      throw ConfigError(
          "--resume takes only execution flags (--workers, --max-restarts, "
          "--backoff-ms, --quiet); the manifest on disk defines the work");
    }
    const campaign::Manifest mm = campaign::load_manifest(resume_dir);
    return campaign::supervise(resume_dir, mm, opts);
  } catch (const ConfigError& e) {
    std::cerr << "ssq_campaign: " << e.what() << "\n";
    return campaign::kExitUsage;
  }
}
