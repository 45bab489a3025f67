// Streaming aggregation of shard checkpoints into one campaign report.
//
// Two output files with deliberately different contracts:
//
//   report.json (ssq.campaign.v1) — the *merged result*: a pure function of
//     the manifest and the set of done-records, aggregated in canonical
//     global-index order. It contains no timestamps, paths, attempt counts
//     or anything else that depends on how execution unfolded, so a
//     campaign that was kill -9'd and resumed produces a report
//     byte-identical to an uninterrupted run — that equality is the
//     durability claim, and the crash/resume ctest asserts it with cmp(1).
//
//   execution.json (ssq.campaign.exec.v1) — the *history*: retries, worker
//     restarts, watchdog kills, wall clock, the resumable marker. Useful
//     for operators, explicitly not byte-stable.
//
// Work is never silently lost or double-counted: every unit of
// manifest.total_units() lands in exactly one of ok / failed / quarantined
// / skipped, and `skipped` is nonzero only in a partial (resumable) report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"

namespace ssq::campaign {

struct Report {
  std::uint64_t total = 0;
  std::uint64_t completed = 0;  // ok + failed + quarantined
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t skipped = 0;  // total - completed

  std::uint64_t grants = 0;
  std::uint64_t delivered = 0;
  std::uint64_t windows = 0;
  std::uint64_t violations_gb = 0;
  std::uint64_t violations_gl = 0;
  std::uint64_t violations_be = 0;
  std::uint64_t faulted = 0;

  struct GridTotals {
    std::string label;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t skipped = 0;
    std::uint64_t grants = 0;
    std::uint64_t delivered = 0;
  };
  std::vector<GridTotals> grid;

  struct Incident {
    std::uint64_t index = 0;     // global work unit
    std::uint64_t scenario = 0;  // generator index within the grid point
    std::string grid_label;
    std::string kind;  // failure kind or quarantine reason
    std::uint64_t cycle = 0;
  };
  std::vector<Incident> failures;     // by global index
  std::vector<Incident> quarantines;  // by global index

  [[nodiscard]] bool complete() const noexcept { return skipped == 0; }
};

/// Merges the done-records of every shard journal under `dir`. Corrupt
/// journal tails are skipped (they only ever cost not-yet-finished units,
/// which show up as skipped work, never as wrong totals), and so is any
/// record in shard k's journal for a unit outside shard k's range.
[[nodiscard]] Report merge_checkpoints(const std::string& dir,
                                       const Manifest& m);

/// ssq.campaign.v1 — deterministic, see the header comment.
[[nodiscard]] std::string render_report(const Report& r, const Manifest& m);

/// Execution history for execution.json (ssq.campaign.exec.v1).
struct ExecutionStats {
  std::uint64_t retried = 0;  // extra attempts recorded across all units
  std::uint64_t worker_restarts = 0;
  std::uint64_t watchdog_kills = 0;
  // Discarded on load: failed checksum/shape, or a unit foreign to the shard.
  std::uint64_t corrupt_records = 0;
  double elapsed_s = 0.0;
  unsigned workers = 0;
  bool interrupted = false;  // graceful drain (SIGINT/SIGTERM)
  bool gave_up = false;      // restart budget exhausted
};
[[nodiscard]] std::string render_execution(const ExecutionStats& e,
                                           const Report& r);

/// Counts retries + corrupt records across all shard journals (for
/// ExecutionStats) without touching verdict totals.
void fold_journal_history(const std::string& dir, const Manifest& m,
                          ExecutionStats& e);

}  // namespace ssq::campaign
