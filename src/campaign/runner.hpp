// Shard runner: the one loop over work units. ssq_campaign's workers run
// it journaled, claiming shards under a drain flag and a heartbeat;
// ssq_fuzz runs it with no journal on its thread pool and keeps its own
// policy (stop at the first failure, shrink, repro) in the hooks.
//
// Claiming uses flock(2) on a per-shard lock file: the lock dies with the
// process (kill -9 included), so there are no stale locks to garbage-collect
// and any number of cooperating workers — in one supervisor, several
// supervisors, or several hosts sharing the campaign directory — can race
// claims safely. Workers always claim the lowest undone unclaimed shard, so
// progress concentrates at the front of the unit space and a `--status`
// glance tells you how far the campaign is.
//
// Units run in index-ordered rounds on an exec::ThreadPool: one unit per
// round on an inline pool, 4x threads on a threaded one. Per unit, in order
// within the claimed shard:
//   1. done in the journal? skip (this is what makes resume cheap);
//   2. attempts exhausted? quarantine: write poisoned-*.scenario (atomic
//      rename) and a quarantined done-record, and move on — a poisoned
//      input costs one repro file, never the campaign;
//   3. otherwise journal a start record, run the scenario under the
//      differential checker, journal the done record. A crash or watchdog
//      kill between start and done leaves exactly the evidence the next
//      attempt needs. One unit per round keeps that blame per unit.
// With no journal, only the current round is held in memory.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "check/scenario.hpp"
#include "exec/thread_pool.hpp"

namespace ssq::campaign {

/// The work unit, shared with ssq_fuzz: scenario `i` of seed `seed` as grid
/// point `g` runs it — generated, then the sparse derate, fast-forward and
/// engine override applied (a forced engine strips packet chaining, which is
/// invalid under one).
[[nodiscard]] check::Scenario unit_scenario(const GridPoint& g,
                                            std::uint64_t seed,
                                            std::uint64_t i);

/// Runs `s` under the differential checker with g's options and judges it.
/// A ConfigError becomes a failure of kind config_error. A GB or GL
/// violation in a fault-free monitored run fails as qos_violation even when
/// every grant matched the reference: the generator only emits admissible
/// reservations, so a clean scenario must be conformant.
[[nodiscard]] check::RunResult run_unit(const GridPoint& g,
                                        const check::Scenario& s);

/// Writes `stem`.scenario and, when the run recorded one, the incident
/// snapshot `stem`.flight.jsonl, each atomically (temp file + rename), so a
/// crash mid-write never leaves a truncated file. False if a write failed.
bool write_repro(const std::string& stem, const check::Scenario& s,
                 const check::RunResult& r);

/// Hooks the runner calls on the way; all optional.
struct RunnerHooks {
  /// Invoked immediately before each unit starts (the liveness signal the
  /// supervisor's watchdog watches).
  std::function<void()> beat;
  /// Checked before each round; true = graceful drain (start nothing new,
  /// leave the shard claimable and return).
  std::function<bool()> drain;
  /// Invoked for every unit that ran, in index order, with its done record,
  /// scenario and result; true stops the run after the current round, as a
  /// drain does, and no later unit reaches the hook.
  std::function<bool(const Record& done, const check::Scenario& s,
                     const check::RunResult& r)>
      unit_done;
};

enum class ShardOutcome : std::uint8_t {
  Completed,  // every unit has a done record; .done marker written
  Drained,    // drain() or unit_done() stopped us; shard left resumable
  IoError,    // journal write failed; shard left resumable
};

/// Runs shard `k` of the campaign in `dir` end to end on `pool` (inline
/// when null). The caller must hold the shard's claim (see ShardClaim
/// below). An empty `dir` runs with no journal: every unit of the shard
/// runs, nothing is written and a failure ships no repro; the hooks own
/// the results.
[[nodiscard]] ShardOutcome run_shard(const std::string& dir, const Manifest& m,
                                     std::uint64_t k,
                                     const RunnerHooks& hooks = {},
                                     exec::ThreadPool* pool = nullptr);

/// flock(2)-held claim on one shard; released on destruction or process
/// death.
class ShardClaim {
 public:
  ShardClaim() = default;
  ~ShardClaim() { release(); }
  ShardClaim(ShardClaim&& other) noexcept;
  ShardClaim& operator=(ShardClaim&& other) noexcept;
  ShardClaim(const ShardClaim&) = delete;
  ShardClaim& operator=(const ShardClaim&) = delete;

  /// Tries to claim shard `k` (non-blocking). False if another process
  /// holds it.
  [[nodiscard]] bool try_claim(const std::string& dir, std::uint64_t k);
  void release();
  [[nodiscard]] bool held() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t shard() const noexcept { return shard_; }

 private:
  int fd_ = -1;
  std::uint64_t shard_ = 0;
};

/// Lowest undone, unclaimed shard, claimed; nullopt when every shard is
/// either done or held by someone else right now.
[[nodiscard]] std::optional<std::uint64_t> claim_lowest_undone(
    const std::string& dir, const Manifest& m, ShardClaim& claim);

/// True once every shard has its done marker.
[[nodiscard]] bool all_shards_done(const std::string& dir, const Manifest& m);
[[nodiscard]] std::uint64_t count_done_shards(const std::string& dir,
                                              const Manifest& m);

}  // namespace ssq::campaign
