#include "campaign/runner.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "check/scenario.hpp"
#include "sim/atomic_file.hpp"

namespace ssq::campaign {

namespace fs = std::filesystem;

ShardClaim::ShardClaim(ShardClaim&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), shard_(other.shard_) {}

ShardClaim& ShardClaim::operator=(ShardClaim&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = std::exchange(other.fd_, -1);
    shard_ = other.shard_;
  }
  return *this;
}

bool ShardClaim::try_claim(const std::string& dir, std::uint64_t k) {
  release();
  const std::string path = lock_path(dir, k);
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return false;
  }
  // Advisory breadcrumb for humans poking at the directory; the flock is
  // the actual mutual exclusion and dies with us, so this never goes stale
  // in a way that matters.
  const std::string who = std::to_string(static_cast<long>(::getpid())) + "\n";
  (void)::ftruncate(fd, 0);
  (void)!::write(fd, who.data(), who.size());
  fd_ = fd;
  shard_ = k;
  return true;
}

void ShardClaim::release() {
  if (fd_ >= 0) {
    ::close(fd_);  // drops the flock
    fd_ = -1;
  }
}

std::optional<std::uint64_t> claim_lowest_undone(const std::string& dir,
                                                 const Manifest& m,
                                                 ShardClaim& claim) {
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    if (fs::exists(done_marker_path(dir, k))) continue;
    if (m.shard_begin(k) == m.shard_end(k)) continue;  // empty trailing shard
    if (claim.try_claim(dir, k)) return k;
  }
  return std::nullopt;
}

bool all_shards_done(const std::string& dir, const Manifest& m) {
  return count_done_shards(dir, m) == m.shards;
}

std::uint64_t count_done_shards(const std::string& dir, const Manifest& m) {
  std::uint64_t n = 0;
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    if (m.shard_begin(k) == m.shard_end(k) ||
        fs::exists(done_marker_path(dir, k))) {
      ++n;
    }
  }
  return n;
}

namespace {

/// Writes the quarantined unit's repro next to the checkpoints so a human
/// (or the nightly-CI artifact upload) can replay exactly what poisoned the
/// worker: `ssq_fuzz --replay=poisoned-....scenario`.
void write_poisoned_repro(const std::string& dir, const Manifest& m,
                          std::uint64_t j, const std::string& reason,
                          std::uint32_t attempts) {
  const std::uint64_t g = m.grid_of(j);
  const std::uint64_t i = m.scenario_of(j);
  std::ostringstream body;
  try {
    const check::Scenario s = check::generate_scenario(i, m.base_seed);
    check::write_scenario(body, s);
  } catch (const ConfigError&) {
    body << "# scenario generation itself failed\n";
  }
  body << "# quarantined: reason=" << reason << " attempts=" << attempts
       << " grid=" << m.grid[g].label << " index=" << j << "\n";
  const std::string path = dir + "/poisoned-" + std::to_string(m.base_seed) +
                           "-" + std::to_string(j) + ".scenario";
  (void)write_file_atomic(path, body.str());
}

Record done_record(std::uint64_t j, std::uint32_t attempt,
                   const check::RunResult& res, bool faulted) {
  Record d;
  d.type = Record::Type::Done;
  d.j = j;
  d.attempt = attempt;
  d.verdict = res.failed ? Verdict::Fail : Verdict::Ok;
  d.kind = res.kind;
  d.fail_cycle = res.fail_cycle;
  d.grants = res.grants_checked;
  d.delivered = res.delivered;
  d.violations_gb = res.violations_gb;
  d.violations_gl = res.violations_gl;
  d.violations_be = res.violations_be;
  d.windows = res.windows_checked;
  d.faulted = faulted;
  return d;
}

}  // namespace

ShardOutcome run_shard(const std::string& dir, const Manifest& m,
                       std::uint64_t k, const RunnerHooks& hooks) {
  const std::string path = ckpt_path(dir, k);
  ShardState state = load_checkpoint(path);
  CheckpointWriter journal;
  if (!journal.open(path, state.valid_bytes, hooks.durable)) {
    return ShardOutcome::IoError;
  }

  for (std::uint64_t j = m.shard_begin(k); j < m.shard_end(k); ++j) {
    if (state.is_done(j)) continue;
    if (hooks.drain && hooks.drain()) return ShardOutcome::Drained;
    if (hooks.beat) hooks.beat();

    const std::uint64_t g = m.grid_of(j);
    const std::uint64_t i = m.scenario_of(j);
    const std::uint32_t attempts = state.attempts(j);

    if (attempts >= m.max_attempts) {
      // Every allowed attempt started and none finished: this unit wedges
      // or kills whoever runs it. Fence it off and keep going — the
      // campaign completes, the repro ships.
      const Plant* plant = m.planted_at(j);
      const std::string reason =
          plant == nullptr
              ? "unresponsive"  // real poison: it hung or killed the worker
              : (plant->kind == Plant::Kind::Crash ? "crash" : "hang");
      write_poisoned_repro(dir, m, j, reason, attempts);
      Record q;
      q.type = Record::Type::Done;
      q.j = j;
      q.attempt = attempts;
      q.verdict = Verdict::Quarantined;
      q.kind = reason;
      if (!journal.append(q)) return ShardOutcome::IoError;
      continue;
    }

    Record s;
    s.type = Record::Type::Start;
    s.j = j;
    s.attempt = attempts + 1;
    if (!journal.append(s)) return ShardOutcome::IoError;
    state.units[j].attempts = attempts + 1;

    if (const Plant* plant = m.planted_at(j)) {
      // Robustness teeth (tests/CI only): this unit is poisoned by
      // construction. Wedge silently — no heartbeat — so the watchdog has
      // something real to catch, or die abruptly so the supervisor does.
      if (plant->kind == Plant::Kind::Hang) {
        for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
      std::abort();
    }
    if (m.throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(m.throttle_ms));
    }

    check::RunResult res;
    bool faulted = false;
    try {
      check::Scenario run = check::generate_scenario(i, m.base_seed);
      run.kernel = m.grid[g].kernel;
      run.fast_forward = m.grid[g].fast_forward;
      if (m.grid[g].engine != arb::MatchKind::None) {
        run.matching_engine = m.grid[g].engine;
        run.packet_chaining = false;  // invalid under an engine
      }
      faulted = run.has_faults();
      res = check::run_scenario(run, m.grid[g].opts);
      // A QoS violation in a fault-free monitored scenario is a finding in
      // its own right even when every grant matched the reference.
      if (!res.failed && !faulted && m.grid[g].opts.monitor &&
          res.violations_gb + res.violations_gl > 0) {
        res.failed = true;
        res.kind = "qos_violation";
      }
    } catch (const ConfigError& e) {
      res.failed = true;
      res.kind = "config_error";
      res.detail = e.what();
    }
    if (res.failed) {
      // Ship the repro (and incident snapshot when one was recorded)
      // immediately — the journal records the verdict, the files carry the
      // evidence. The campaign keeps running: one divergence must not cost
      // the other 999,999 scenarios of a nightly sweep.
      std::ostringstream body;
      try {
        check::write_scenario(body, check::generate_scenario(i, m.base_seed));
        const std::string stem = dir + "/repro-" +
                                 std::to_string(m.base_seed) + "-" +
                                 std::to_string(j);
        (void)write_file_atomic(stem + ".scenario", body.str());
        if (!res.flight_dump.empty()) {
          (void)write_file_atomic(stem + ".flight.jsonl", res.flight_dump);
        }
      } catch (const ConfigError&) {
        // generation failed above; nothing to serialise
      }
    }
    if (!journal.append(done_record(j, attempts + 1, res, faulted))) {
      return ShardOutcome::IoError;
    }
    state.units[j].done = Record{};  // only is_done() is consulted below
  }

  journal.close();
  // The marker is pure acceleration (claim scans skip finished shards
  // without replaying journals); the journal stays the source of truth.
  if (!write_file_atomic(done_marker_path(dir, k), "done\n")) {
    return ShardOutcome::IoError;
  }
  return ShardOutcome::Completed;
}

}  // namespace ssq::campaign
