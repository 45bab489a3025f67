// Campaign manifests: a deterministic description of a sharded differential-
// testing sweep — scenario-generator seed range × a grid of checking
// configurations, split into fixed shards.
//
// The manifest is the campaign's *identity*: everything a worker needs to
// regenerate and check any scenario lives here (the campaign directory adds
// only progress — checkpoints, locks, markers — never definition). It is
// written once at --new via atomic rename and never modified, so any number
// of worker processes (or hosts sharing the directory) agree on the exact
// same work split forever, and `--resume` after a crash or reboot re-derives
// identical work from it. Runtime knobs that do NOT affect results (worker
// count, restart budget) are deliberately not part of the manifest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arb/matching.hpp"
#include "check/differential.hpp"

namespace ssq::campaign {

/// One checking configuration of the grid, parsed from a label like
/// "default", "monitor", "noff" or combinations joined with '+'
/// ("monitor+noff"). The label is the canonical serialised form.
struct GridPoint {
  std::string label = "default";
  check::CheckOptions opts;
  /// Matching engine override, set by an "engine=<name>" token. Absent keeps
  /// each scenario's generated engine; engine=none forces the classic
  /// differential path.
  std::optional<arb::MatchKind> engine;
  /// Idle-cycle fast-forward; a "noff" token turns it off so a grid can pit
  /// a fast-forwarded point against its fully-stepped twin (byte-identical
  /// verdicts by construction — the event-horizon regression sweep).
  bool fast_forward = true;
  /// A "sparse" token derates every generated scenario into its sparse
  /// long-horizon twin (8x the cycles, 1/20th the injection rates), so idle
  /// stretches dominate and fast-forward has something to skip.
  bool sparse = false;
};

/// Parses a grid label; throws ssq::ConfigError on an unknown token.
/// Recognised tokens: default (no-op), monitor, no-circuit, no-state,
/// noff, sparse, engine=<islip|qps|swqps|ssvc|none>.
[[nodiscard]] GridPoint parse_grid_point(const std::string& label);

/// Test-only planted harness defects: the robustness teeth. A "hang" makes
/// the shard runner wedge forever *before* running that work unit (the
/// watchdog must kill it and the retry budget must quarantine it); a
/// "crash" aborts the worker process (the supervisor must restart it and
/// the checkpoint must carry the finished work across).
struct Plant {
  enum class Kind { Hang, Crash };
  Kind kind = Kind::Hang;
  std::uint64_t index = 0;  // global work-unit index
};

struct Manifest {
  std::uint64_t base_seed = 1;
  std::uint64_t scenarios = 200;  // per grid point
  std::uint64_t shards = 8;
  std::vector<GridPoint> grid{GridPoint{}};
  /// Work-unit attempts before quarantine (a started-but-never-finished
  /// unit — crash or watchdog kill — costs one attempt).
  std::uint32_t max_attempts = 3;
  /// Watchdog: a worker whose heartbeat is silent this long is presumed
  /// wedged, SIGKILLed and restarted. Must exceed the slowest legitimate
  /// scenario by a comfortable margin.
  std::uint64_t scenario_timeout_ms = 30000;
  /// Test/CI pacing: sleep this long before each scenario so an external
  /// kill can be timed to land mid-campaign. 0 in real use.
  std::uint64_t throttle_ms = 0;
  std::vector<Plant> planted;

  /// Global work units: every grid point runs every scenario index.
  [[nodiscard]] std::uint64_t total_units() const noexcept {
    return scenarios * static_cast<std::uint64_t>(grid.size());
  }
  /// Work unit j -> grid point (j / scenarios) and scenario index
  /// (j % scenarios).
  [[nodiscard]] std::uint64_t grid_of(std::uint64_t j) const noexcept {
    return j / scenarios;
  }
  [[nodiscard]] std::uint64_t scenario_of(std::uint64_t j) const noexcept {
    return j % scenarios;
  }
  /// Contiguous shard ranges: shard k covers [begin, end) of the global
  /// unit space; the last shards may be empty when shards > total_units().
  [[nodiscard]] std::uint64_t shard_begin(std::uint64_t k) const noexcept;
  [[nodiscard]] std::uint64_t shard_end(std::uint64_t k) const noexcept;

  [[nodiscard]] const Plant* planted_at(std::uint64_t j) const noexcept;

  /// Cross-field validation; throws ssq::ConfigError.
  void validate() const;

  /// ssq.campaign.manifest.v1 JSON, deterministic byte-for-byte.
  [[nodiscard]] std::string serialize() const;
};

/// Parses serialize() output; throws ssq::ConfigError with context.
[[nodiscard]] Manifest parse_manifest(const std::string& text);

/// Loads `dir`/manifest.json; throws ssq::ConfigError (missing directory or
/// manifest included — the actionable "did you mean --new?" case).
[[nodiscard]] Manifest load_manifest(const std::string& dir);

/// Creates `dir` (must not already contain a manifest) and writes
/// manifest.json atomically; throws ssq::ConfigError.
void init_campaign_dir(const std::string& dir, const Manifest& m);

}  // namespace ssq::campaign
