#include "campaign/service.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "campaign/runner.hpp"
#include "sim/atomic_file.hpp"
#include "sim/error.hpp"

namespace ssq::campaign {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

void install_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking waits promptly
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

std::string hb_path(const std::string& dir, unsigned worker_id) {
  return dir + "/worker-" + std::to_string(worker_id) + ".hb";
}

struct Slot {
  pid_t pid = -1;  // -1 = idle
  std::uint64_t restarts = 0;
  Clock::time_point respawn_at{};  // idle: earliest next spawn
  std::string last_beat;
  Clock::time_point last_beat_change{};
};

pid_t spawn_worker(const std::string& exe, const std::string& dir,
                   unsigned worker_id) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or -1 on failure)
#if defined(__linux__)
  // Die with the supervisor: a kill -9 of the service must not leave
  // orphaned workers appending to the journals the next --resume reads.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) _exit(127);  // parent already gone
#endif
  const std::string worker_flag = "--worker=" + dir;
  const std::string id_flag = "--worker-id=" + std::to_string(worker_id);
  char* const argv[] = {const_cast<char*>("ssq_campaign"),
                        const_cast<char*>(worker_flag.c_str()),
                        const_cast<char*>(id_flag.c_str()), nullptr};
  ::execv(exe.c_str(), argv);
  _exit(127);
}

}  // namespace

int run_worker_loop(const std::string& dir, unsigned worker_id) {
  install_handlers();
  const std::string hb = hb_path(dir, worker_id);
  std::uint64_t beats = 0;
  RunnerHooks hooks;
  hooks.beat = [&] {
    // Plain truncate-and-write: the beat is a liveness signal, not data —
    // a torn read just looks like "changed", which is the truth.
    std::ofstream os(hb, std::ios::trunc);
    os << ++beats << "\n";
  };
  hooks.drain = [] { return g_signal != 0; };

  const Manifest m = load_manifest(dir);
  for (;;) {
    if (g_signal != 0) return 0;
    ShardClaim claim;
    const auto k = claim_lowest_undone(dir, m, claim);
    if (!k.has_value()) return 0;  // nothing claimable: let the supervisor decide
    hooks.beat();
    switch (run_shard(dir, m, *k, hooks)) {
      case ShardOutcome::Completed:
      case ShardOutcome::Drained:
        break;
      case ShardOutcome::IoError:
        std::cerr << "ssq_campaign worker " << worker_id
                  << ": journal write failure on shard " << *k << "\n";
        return kExitWorkerError;
    }
  }
}

Report write_reports(const std::string& dir, const Manifest& m,
                     const ExecutionStats& exec) {
  ExecutionStats e = exec;
  fold_journal_history(dir, m, e);
  const Report r = merge_checkpoints(dir, m);
  if (!write_file_atomic(dir + "/report.json", render_report(r, m))) {
    throw ConfigError("campaign: cannot write '" + dir + "/report.json'");
  }
  if (!write_file_atomic(dir + "/execution.json", render_execution(e, r))) {
    throw ConfigError("campaign: cannot write '" + dir + "/execution.json'");
  }
  return r;
}

void print_status(std::ostream& os, const std::string& dir,
                  const Manifest& m) {
  const Report r = merge_checkpoints(dir, m);
  os << "campaign " << dir << ": " << r.completed << "/" << r.total
     << " units done (" << r.ok << " ok, " << r.failed << " failed, "
     << r.quarantined << " quarantined), " << count_done_shards(dir, m) << "/"
     << m.shards << " shards complete\n";
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    const std::uint64_t b = m.shard_begin(k);
    const std::uint64_t e = m.shard_end(k);
    if (b == e) continue;
    const ShardState s = load_checkpoint(ckpt_path(dir, k));
    std::uint64_t done = 0;
    for (std::uint64_t j = b; j < e; ++j) {
      if (s.is_done(j)) ++done;
    }
    os << "  shard " << k << ": " << done << "/" << (e - b)
       << (fs::exists(done_marker_path(dir, k)) ? " [done]" : "")
       << (s.corrupt_records ? " [torn tail discarded]" : "") << "\n";
  }
}

int supervise(const std::string& dir, const Manifest& m,
              const ServiceOptions& opts) {
  install_handlers();
  const auto t0 = Clock::now();
  const unsigned workers = opts.workers == 0 ? 1 : opts.workers;
  std::vector<Slot> slots(workers);
  ExecutionStats exec;
  exec.workers = workers;

  auto log = [&](const std::string& line) {
    if (!opts.quiet) std::cout << line << "\n" << std::flush;
  };

  auto backoff = [&](const Slot& s) {
    std::uint64_t ms = opts.backoff_base_ms;
    for (std::uint64_t i = 0; i < s.restarts && ms < opts.backoff_cap_ms; ++i) {
      ms *= 2;
    }
    return std::chrono::milliseconds(std::min(ms, opts.backoff_cap_ms));
  };

  auto spawn = [&](unsigned slot_id) {
    Slot& s = slots[slot_id];
    s.pid = spawn_worker(opts.exe_path, dir, slot_id);
    if (s.pid < 0) {
      throw ConfigError("campaign: fork failed: " +
                        std::string(std::strerror(errno)));
    }
    s.last_beat.clear();
    s.last_beat_change = Clock::now();
  };

  auto terminate_all = [&](int sig) {
    for (Slot& s : slots) {
      if (s.pid > 0) ::kill(s.pid, sig);
    }
  };

  auto reap_all_blocking = [&](std::chrono::milliseconds grace) {
    const auto deadline = Clock::now() + grace;
    for (;;) {
      bool alive = false;
      for (Slot& s : slots) {
        if (s.pid <= 0) continue;
        int status = 0;
        const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
        if (r == s.pid) {
          s.pid = -1;
        } else {
          alive = true;
        }
      }
      if (!alive) return;
      if (Clock::now() >= deadline) {
        terminate_all(SIGKILL);
        grace = std::chrono::milliseconds(5000);  // always converges
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };

  for (unsigned w = 0; w < workers; ++w) spawn(w);
  log("campaign: " + std::to_string(m.total_units()) + " work units in " +
      std::to_string(m.shards) + " shards, " + std::to_string(workers) +
      " worker(s)");

  bool drained = false;
  bool gave_up = false;
  while (!all_shards_done(dir, m)) {
    if (g_signal != 0) {
      log("campaign: signal received, draining (workers finish their "
          "in-flight scenario)...");
      terminate_all(SIGTERM);
      reap_all_blocking(std::chrono::milliseconds(
          std::max<std::uint64_t>(2 * m.scenario_timeout_ms, 10000)));
      drained = true;
      break;
    }

    // Reap exits.
    for (unsigned w = 0; w < workers; ++w) {
      Slot& s = slots[w];
      if (s.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r != s.pid) continue;
      s.pid = -1;
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (clean) {
        s.respawn_at = Clock::now() + std::chrono::milliseconds(200);
        continue;
      }
      ++exec.worker_restarts;
      ++s.restarts;
      if (exec.worker_restarts > opts.max_restarts) {
        log("campaign: restart budget exhausted (" +
            std::to_string(opts.max_restarts) + "); giving up");
        gave_up = true;
        break;
      }
      std::ostringstream why;
      if (WIFSIGNALED(status)) {
        why << "killed by signal " << WTERMSIG(status);
      } else {
        why << "exit code " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      }
      const auto delay = backoff(s);
      log("campaign: worker " + std::to_string(w) + " " + why.str() +
          "; restart " + std::to_string(s.restarts) + " in " +
          std::to_string(delay.count()) + "ms");
      s.respawn_at = Clock::now() + delay;
    }
    if (gave_up) {
      terminate_all(SIGTERM);
      reap_all_blocking(std::chrono::milliseconds(10000));
      break;
    }

    // Watchdog: a live worker whose heartbeat has not changed within the
    // scenario timeout is wedged (a hung scenario never beats again).
    for (unsigned w = 0; w < workers; ++w) {
      Slot& s = slots[w];
      if (s.pid <= 0) continue;
      std::string beat;
      {
        std::ifstream is(hb_path(dir, w));
        std::getline(is, beat);
      }
      const auto now = Clock::now();
      if (beat != s.last_beat) {
        s.last_beat = beat;
        s.last_beat_change = now;
      } else if (now - s.last_beat_change >
                 std::chrono::milliseconds(m.scenario_timeout_ms)) {
        ++exec.watchdog_kills;
        log("campaign: worker " + std::to_string(w) +
            " heartbeat silent for > " +
            std::to_string(m.scenario_timeout_ms) +
            "ms; killing wedged worker");
        ::kill(s.pid, SIGKILL);
        s.last_beat_change = now;  // the reap above handles the restart
      }
    }

    // Respawn idle slots while claimable work remains. (Clean exits mean
    // "nothing claimable from where I stood" — which changes when another
    // worker dies holding a shard.)
    for (unsigned w = 0; w < workers; ++w) {
      Slot& s = slots[w];
      if (s.pid > 0 || Clock::now() < s.respawn_at) continue;
      {
        // A momentary claim, released before the worker is spawned.
        ShardClaim probe;
        if (!claim_lowest_undone(dir, m, probe).has_value()) break;
      }
      spawn(w);
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (!drained && !gave_up) {
    // Shards are all done; workers exit by themselves, but hurry them up.
    terminate_all(SIGTERM);
    reap_all_blocking(std::chrono::milliseconds(10000));
  }

  exec.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  exec.interrupted = drained;
  exec.gave_up = gave_up;
  const Report r = write_reports(dir, m, exec);
  fold_journal_history(dir, m, exec);  // summary shows journal-proven retries

  std::ostringstream sum;
  sum << "campaign " << (r.complete() ? "complete" : "interrupted") << ": "
      << r.completed << "/" << r.total << " units (" << r.ok << " ok, "
      << r.failed << " failed, " << r.quarantined << " quarantined, "
      << r.skipped << " skipped), " << r.grants << " grants checked, "
      << exec.retried << " retried, " << exec.worker_restarts
      << " worker restarts, " << exec.watchdog_kills << " watchdog kills";
  log(sum.str());
  if (!r.complete()) {
    log("resume with: ssq_campaign --resume=" + dir);
    return kExitResumable;
  }
  log("report written to " + dir + "/report.json");
  return r.failed == 0 ? kExitOk : kExitFailures;
}

}  // namespace ssq::campaign
