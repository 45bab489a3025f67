#include "campaign/runner.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

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

check::Scenario unit_scenario(const GridPoint& g, std::uint64_t seed,
                              std::uint64_t i) {
  check::Scenario s = check::generate_scenario(i, seed);
  if (g.sparse) {
    // Deterministic derate: same draws, same faults, same checks — only the
    // offered load shrinks and the horizon stretches. Rates only go down,
    // so admissibility is preserved.
    s.cycles *= 8;
    for (auto& f : s.flows) f.inject_rate *= 0.05;
  }
  s.fast_forward = g.fast_forward;
  if (g.engine.has_value()) {
    s.matching_engine = *g.engine;
    if (*g.engine != arb::MatchKind::None) s.packet_chaining = false;
  }
  return s;
}

check::RunResult run_unit(const GridPoint& g, const check::Scenario& s) {
  check::RunResult res;
  try {
    res = check::run_scenario(s, g.opts);
  } catch (const ConfigError& e) {
    res.failed = true;
    res.kind = "config_error";
    res.detail = e.what();
    return res;
  }
  if (!res.failed && !s.has_faults() && g.opts.monitor &&
      res.violations_gb + res.violations_gl > 0) {
    res.failed = true;
    res.kind = "qos_violation";
    res.detail = "gb=" + std::to_string(res.violations_gb) +
                 " gl=" + std::to_string(res.violations_gl) + " over " +
                 std::to_string(res.windows_checked) +
                 " windows, no faults injected";
  }
  return res;
}

bool write_repro(const std::string& stem, const check::Scenario& s,
                 const check::RunResult& r) {
  std::ostringstream body;
  check::write_scenario(body, s);
  bool ok = write_file_atomic(stem + ".scenario", body.str());
  if (!r.flight_dump.empty()) {
    ok = write_file_atomic(stem + ".flight.jsonl", r.flight_dump) && ok;
  }
  return ok;
}

namespace {

/// Writes the quarantined unit's repro next to the checkpoints so a human
/// (or the nightly-CI artifact upload) can replay exactly what poisoned the
/// worker: `ssq_fuzz --replay=poisoned-....scenario`.
void write_poisoned_repro(const std::string& dir, const Manifest& m,
                          std::uint64_t j, const std::string& reason,
                          std::uint32_t attempts) {
  const GridPoint& g = m.grid[m.grid_of(j)];
  std::ostringstream body;
  check::write_scenario(body, unit_scenario(g, m.base_seed, m.scenario_of(j)));
  body << "# quarantined: reason=" << reason << " attempts=" << attempts
       << " grid=" << g.label << " index=" << j << "\n";
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
                       std::uint64_t k, const RunnerHooks& hooks,
                       exec::ThreadPool* pool) {
  const bool journaled = !dir.empty();
  ShardState state;
  CheckpointWriter journal;
  if (journaled) {
    const std::string path = ckpt_path(dir, k);
    state = load_checkpoint(path);
    if (!journal.open(path, state.valid_bytes)) return ShardOutcome::IoError;
  }
  exec::ThreadPool inline_pool(1);
  exec::ThreadPool& workers = pool != nullptr ? *pool : inline_pool;
  const std::size_t round_size =
      workers.threads() <= 1 ? 1 : 4 * std::size_t{workers.threads()};

  struct Unit {
    Record start;
    check::Scenario scenario;
    check::RunResult result;
  };
  std::vector<Unit> round;
  const std::uint64_t end = m.shard_end(k);
  for (std::uint64_t j = m.shard_begin(k); j < end;) {
    if (hooks.drain && hooks.drain()) return ShardOutcome::Drained;
    round.clear();
    for (; j < end && round.size() < round_size; ++j) {
      if (state.is_done(j)) continue;
      if (hooks.beat) hooks.beat();
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
        if (!journal.append({.type = Record::Type::Done,
                             .j = j,
                             .attempt = attempts,
                             .verdict = Verdict::Quarantined,
                             .kind = reason})) {
          return ShardOutcome::IoError;
        }
        continue;
      }
      Unit& u = round.emplace_back();
      u.start.j = j;
      u.start.attempt = attempts + 1;
      if (journaled && !journal.append(u.start)) return ShardOutcome::IoError;
    }

    workers.run_indexed(round.size(), [&](std::size_t i) {
      Unit& u = round[i];
      if (const Plant* plant = m.planted_at(u.start.j)) {
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
      const GridPoint& point = m.grid[m.grid_of(u.start.j)];
      u.scenario = unit_scenario(point, m.base_seed, m.scenario_of(u.start.j));
      u.result = run_unit(point, u.scenario);
    });

    // The whole round is journaled even when a hook stops the run: every
    // unit in it ran, so none may look like a crashed attempt.
    bool stop = false;
    for (const Unit& u : round) {
      // A failure ships its repro (and incident snapshot when one was
      // recorded) immediately — the journal records the verdict, the files
      // carry the evidence. The campaign keeps running: one divergence must
      // not cost the other 999,999 scenarios of a nightly sweep.
      const Record done = done_record(u.start.j, u.start.attempt, u.result,
                                      u.scenario.has_faults());
      if (journaled) {
        if (u.result.failed) {
          (void)write_repro(dir + "/repro-" + std::to_string(m.base_seed) +
                                "-" + std::to_string(u.start.j),
                            u.scenario, u.result);
        }
        if (!journal.append(done)) return ShardOutcome::IoError;
      }
      stop = stop || (hooks.unit_done &&
                      hooks.unit_done(done, u.scenario, u.result));
    }
    if (stop) return ShardOutcome::Drained;
  }

  if (!journaled) return ShardOutcome::Completed;
  journal.close();
  // The marker is pure acceleration (claim scans skip finished shards
  // without replaying journals); the journal stays the source of truth.
  if (!write_file_atomic(done_marker_path(dir, k), "done\n")) {
    return ShardOutcome::IoError;
  }
  return ShardOutcome::Completed;
}

}  // namespace ssq::campaign
