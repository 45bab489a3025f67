// Fuzz scenarios: a self-contained (config × workload × fault plan × length)
// description that can be generated from a seed, serialised to a small text
// file, replayed deterministically, and shrunk.
//
// The text format extends the workload format (traffic/workload_io) with
// switch-geometry, fault-plan and scrubber directives, so one file is a
// complete repro: `ssq_fuzz --replay=FILE` re-runs the exact failing run.
// Parse errors throw ssq::ConfigError with file:line context.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scrubber.hpp"
#include "switch/config.hpp"
#include "switch/crossbar.hpp"
#include "traffic/flow.hpp"
#include "traffic/workload.hpp"

namespace ssq::check {

struct Scenario {
  std::string name = "scenario";
  /// Switch seed (injection processes).
  std::uint64_t seed = 0x5eed;
  Cycle cycles = 2000;

  std::uint32_t radix = 8;
  core::SsvcParams ssvc{};
  core::GlPolicing gl_policing = core::GlPolicing::Stall;
  std::uint32_t gl_allowance = 32;
  bool packet_chaining = false;
  std::uint32_t arbitration_cycles = 1;
  /// Matching engine replacing the per-output arbiters (None = the classic
  /// single-request path). Engine scenarios run invariants-only, plus the
  /// checker's progress guard and unrequested-grant checks.
  arb::MatchKind matching_engine = arb::MatchKind::None;
  /// Iteration budget (iSLIP/QPS-r) or window T (SW-QPS).
  std::uint32_t match_iterations = 2;
  sw::GsfConfig gsf{};
  sw::BufferConfig buffers{};

  std::vector<traffic::FlowSpec> flows;
  struct GlReservation {
    OutputId dst = 0;
    double rate = 0.0;
    std::uint32_t packet_len = 1;
  };
  std::vector<GlReservation> gl_reservations;

  fault::FaultPlan faults{};
  /// 0 = no scrubber attached.
  Cycle scrub_interval = 0;

  /// Execution knobs — NOT part of the serialised scenario (a repro file
  /// describes the workload; grants and traces are identical across kernels
  /// and fast-forward by construction, which the determinism tests assert by
  /// sweeping these over the same scenarios).
  core::ArbKernel kernel = core::ArbKernel::Bitsliced;
  bool fast_forward = true;

  [[nodiscard]] bool has_faults() const noexcept { return !faults.empty(); }

  /// Switch configuration implied by this scenario: SsvcQos + SingleRequest
  /// (the differential-checkable configuration), or SsvcQos +
  /// IterativeMatching when a matching engine is set. Validates; throws
  /// ssq::ConfigError.
  [[nodiscard]] sw::SwitchConfig build_config() const;
  /// Workload implied by this scenario. Validates; throws ssq::ConfigError.
  [[nodiscard]] traffic::Workload build_workload() const;
  /// Cross-field checks the config/workload validators cannot see (fault
  /// coordinates against the radix). Throws ssq::ConfigError.
  void validate() const;
};

/// Deterministic scenario generator: scenario `index` of the fuzz campaign
/// seeded `base_seed`. Equal arguments yield equal scenarios on every
/// platform. Generated scenarios are always admissible and valid.
[[nodiscard]] Scenario generate_scenario(std::uint64_t index,
                                         std::uint64_t base_seed);

/// Parses the scenario text format; throws ssq::ConfigError with file:line.
[[nodiscard]] Scenario parse_scenario(std::istream& in,
                                      const std::string& name = "<stream>");
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// Serialises round-trippably (doubles at full precision).
void write_scenario(std::ostream& out, const Scenario& s);

/// A scenario instantiated and wired: the switch plus its optional fault
/// injector and scrubber, attached in the right order.
struct ScenarioRun {
  std::unique_ptr<sw::CrossbarSwitch> sim;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::StateScrubber> scrubber;
};
[[nodiscard]] ScenarioRun instantiate(const Scenario& s);

struct RunResult {
  bool failed = false;
  Cycle fail_cycle = 0;
  OutputId output = kNoPort;
  std::string kind;
  std::string detail;
  std::uint64_t grants_checked = 0;
  std::uint64_t delivered = 0;
  // Conformance telemetry (CheckOptions::monitor).
  std::uint64_t violations_gb = 0;
  std::uint64_t violations_gl = 0;
  std::uint64_t violations_be = 0;
  std::uint64_t windows_checked = 0;
  /// Bounded JSONL incident snapshot (CheckOptions::flight_recorder):
  /// captured at the first violation or fault, replaced by the divergence
  /// snapshot if the differential checker fails. Empty when nothing fired.
  std::string flight_dump;
};

/// Runs the scenario under a DifferentialChecker (scenarios with faults are
/// checked invariants-only — the checker handles that automatically).
[[nodiscard]] RunResult run_scenario(const Scenario& s,
                                     const CheckOptions& opts = {});

}  // namespace ssq::check
