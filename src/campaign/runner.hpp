// Shard runner: claims shards and executes their work units, journaling
// every step, under a drain flag and a heartbeat.
//
// Claiming uses flock(2) on a per-shard lock file: the lock dies with the
// process (kill -9 included), so there are no stale locks to garbage-collect
// and any number of cooperating workers — in one supervisor, several
// supervisors, or several hosts sharing the campaign directory — can race
// claims safely. Workers always claim the lowest undone unclaimed shard, so
// progress concentrates at the front of the unit space and a `--status`
// glance tells you how far the campaign is.
//
// Per unit, in order within the claimed shard:
//   1. done in the journal? skip (this is what makes resume cheap);
//   2. attempts exhausted? quarantine: write poisoned-*.scenario (atomic
//      rename) and a quarantined done-record, and move on — a poisoned
//      input costs one repro file, never the campaign;
//   3. otherwise journal a start record, run the scenario under the
//      differential checker, journal the done record. A crash or watchdog
//      kill between start and done leaves exactly the evidence the next
//      attempt needs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"

namespace ssq::campaign {

/// Hooks the runner calls on the way; all optional.
struct RunnerHooks {
  /// Invoked immediately before each unit starts (the liveness signal the
  /// supervisor's watchdog watches).
  std::function<void()> beat;
  /// Checked between units; true = graceful drain (finish nothing new,
  /// leave the shard claimable and return).
  std::function<bool()> drain;
  /// Overrides manifest.throttle_ms / fsync for in-process callers (bench).
  bool durable = true;
};

enum class ShardOutcome : std::uint8_t {
  Completed,  // every unit has a done record; .done marker written
  Drained,    // drain() asked us to stop; shard left resumable
  IoError,    // journal write failed; shard left resumable
};

/// Runs shard `k` of the campaign in `dir` end to end. The caller must hold
/// the shard's claim (see ShardClaim below).
[[nodiscard]] ShardOutcome run_shard(const std::string& dir, const Manifest& m,
                                     std::uint64_t k,
                                     const RunnerHooks& hooks = {});

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
