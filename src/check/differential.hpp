// DifferentialChecker — lock-step three-way oracle for a running switch.
//
// After every step() it reads the cycle record the switch keeps
// (CrossbarSwitch::last_cycle(): the asserted requests, the committed
// grants and the per-flow packet counts) and replays every arbitration
// against two independent models:
//
//   1. ReferenceOutput — the obviously-correct SSVC semantics (per grant:
//      the reference must pick the same winner and class; per output-cycle
//      with requests but no grant: the reference must agree nothing was
//      serviceable).
//   2. circuit::CircuitArbiter — the bit-level precharge/discharge/sense
//      model, fed the reference's thermometer levels and LRG order (per
//      grant: the wires must elect the same winner).
//
// plus per-cycle invariants that hold in every mode, faults included:
// at most one grant per output and per input per cycle, and conservation of
// packets (delivered <= buffered <= created, per flow). In differential mode
// it additionally deep-compares arbiter state (auxVC values, thermometer
// levels — stored and sensed —, LRG ranks, GL clock, epoch real time) and
// enforces the GL policing bound and counter-cap safety. An output is
// compared in a cycle when it had a request or a grant, when either side's
// mutation counter moved since its last passing compare
// (OutputQosArbiter::state_version, ReferenceOutput::version), or on the
// first checked cycle of an epoch, when every output is swept; its
// per-input state is re-walked only when a counter moved. An output outside
// that set holds the state its last passing compare found equal and cannot
// wrap, so every skipped comparison is one that cannot fail
// (docs/PERFORMANCE.md, "Version-gated state compare").
//
// The first mismatch is captured as a Divergence with a full state dump of
// both sides; checking stops there so the dump describes the *first* broken
// cycle, not a cascade.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "arb/lrg.hpp"
#include "check/reference.hpp"
#include "circuit/circuit_arbiter.hpp"
#include "obs/probe.hpp"
#include "switch/crossbar.hpp"

namespace ssq::check {

struct CheckOptions {
  /// Reference-model + circuit comparisons. Requires SsvcQos mode without a
  /// matching engine and no fault injection (faults legitimately
  /// corrupt the state the oracle predicts). Invariants always run.
  bool differential = true;
  /// Third leg: bit-level circuit arbitration per grant (differential only).
  bool circuit = true;
  /// Deep per-cycle arbiter state comparison (differential only).
  bool state_compare = true;
  /// Deliberate defect planted in the reference model (tests only).
  PlantedBug bug = PlantedBug::None;
  /// Attach an online QoS conformance monitor (run_scenario only): GB
  /// share / GL Eq. (1) / BE fairness verdicts are counted into RunResult.
  /// Checks are armed per scenario — GL only under Stall policing, GB only
  /// under a real counter-management policy (see run_scenario).
  bool monitor = false;
  /// Conformance window in cycles. Smaller than ssq_sim's 2048 default:
  /// generated scenarios run only a few thousand cycles, and a campaign's
  /// teeth come from judged windows per scenario.
  Cycle monitor_window = 512;
  /// Flight-recorder ring capacity in events (0 = no recorder). With a
  /// recorder attached, RunResult::flight_dump carries a bounded JSONL
  /// snapshot of the first incident (violation, fault, or divergence).
  std::size_t flight_recorder = 0;
};

struct Divergence {
  Cycle cycle = 0;
  OutputId output = kNoPort;
  std::string kind;    // short machine-greppable tag, e.g. "winner_mismatch"
  std::string detail;  // full human-readable state dump
};

class DifferentialChecker {
 public:
  /// Checks `sim`, which must outlive the checker. Attaches nothing: a probe
  /// already on the switch keeps receiving events.
  explicit DifferentialChecker(sw::CrossbarSwitch& sim, CheckOptions opts = {});
  ~DifferentialChecker();
  DifferentialChecker(const DifferentialChecker&) = delete;
  DifferentialChecker& operator=(const DifferentialChecker&) = delete;

  /// Advances the switch one cycle and checks it. Returns false once a
  /// divergence has been recorded (the switch is no longer stepped).
  bool step();

  /// CrossbarSwitch::run for `cycles` cycles, checking each stepped cycle;
  /// returns false if a divergence stopped it.
  bool run(Cycle cycles);

  /// Checks one cycle record (step() feeds it sim.last_cycle(); tests may
  /// forge one). Visits only the outputs with a request or a grant (plus,
  /// for the state compare, written outputs and an epoch's first-cycle
  /// sweep), in this order: each grant, missed grants, state compare,
  /// conservation (lowest violating flow first), the progress guard. No-op
  /// after a divergence.
  void check_cycle(const sw::CycleRecord& rec);

  /// For drivers that call sim.fast_forward() themselves instead of going
  /// through run(): the skipped cycles carried no requests, so a stepped run
  /// would have reset the engine stall streak on every one of them. Call
  /// after any fast_forward() that advanced the clock.
  void on_fast_forward() noexcept { stall_streak_ = 0; }

  [[nodiscard]] const std::optional<Divergence>& divergence() const noexcept {
    return divergence_;
  }
  /// Grants compared against the reference (chained grants included).
  [[nodiscard]] std::uint64_t grants_checked() const noexcept {
    return grants_checked_;
  }
  [[nodiscard]] const CheckOptions& options() const noexcept { return opts_; }
  /// Reference model of output `o` (differential mode only).
  [[nodiscard]] const ReferenceOutput& reference(OutputId o) const {
    SSQ_EXPECT(o < refs_.size());
    return refs_[o];
  }
  /// A probe for event consumers (conformance monitor, flight recorder):
  /// the first call attaches the checker's own probe to the switch,
  /// replacing any other. The checks never need it.
  [[nodiscard]] obs::SwitchProbe& probe();

 private:
  /// Checks the cycle the switch just stepped; false once diverged.
  bool check_last_cycle();
  void check_grant(const sw::CycleRecord& rec, const sw::GrantRecord& g);
  void check_circuit(const sw::CycleRecord& rec, const sw::GrantRecord& g,
                     const ReferenceOutput& ref, bool gl_ok);
  /// Fills reqs_ with output o's single-request-mode requests, input order.
  void gather_requests(const sw::CycleRecord& rec, OutputId o);
  /// Deep state compare of the outputs in `touched` (a request or a grant
  /// this cycle), of those either side wrote since their last passing
  /// compare, and of every output on the first checked cycle of an epoch.
  void compare_state(Cycle t, std::uint64_t touched);
  void fail(Cycle t, OutputId o, std::string kind, std::string detail);
  [[nodiscard]] std::string dump_output_state(OutputId o) const;
  [[nodiscard]] static std::string dump_requests(const sw::CycleRecord& rec,
                                                 OutputId o);

  sw::CrossbarSwitch& sim_;
  CheckOptions opts_;
  std::optional<obs::SwitchProbe> probe_;  // attached by probe() only

  std::vector<ReferenceOutput> refs_;  // per output
  // The switch's output arbiters (built once with it), read-only: the
  // mutable accessors count as writes.
  std::vector<const core::OutputQosArbiter*> arbs_;
  // This cycle's outputs and inputs granted so far (bit per port).
  std::uint64_t granted_out_ = 0;
  std::uint64_t granted_in_ = 0;
  std::vector<core::ClassRequest> reqs_;  // gather_requests' output
  // Progress guard, armed only for matching-engine configs (config.engine):
  // consecutive cycles with >= 1 request but zero grants switch-wide. An
  // honest engine matches at least one eligible pair per cycle (SW-QPS's
  // window gaps are bounded by T + the longest packet), so a streak past the
  // threshold means the engine starves the switch. NOT armed for the
  // single-request path: GL Stall policing there can legitimately hold an
  // output for thousands of cycles.
  bool progress_guard_ = false;
  Cycle stall_streak_ = 0;

  // Per output, the (simulator, reference) state versions at its last
  // passing per-input compare (sentinel-initialised: never compared).
  struct ComparedVersions {
    std::uint64_t sim = 0;
    std::uint64_t ref = 0;
    bool operator==(const ComparedVersions&) const = default;
  };
  std::vector<ComparedVersions> compared_;
  // Epoch index (cycle >> lsb_bits) of compare_state's last all-output
  // sweep; the sentinel makes the first checked cycle a sweep.
  Cycle swept_epoch_ = std::numeric_limits<Cycle>::max();

  // Circuit leg (constructed only when enabled). The request vector, LRG
  // rows and arbitration trace are reused across every grant check so the
  // per-grant circuit leg stays allocation-free at steady state.
  std::optional<circuit::CircuitArbiter> circuit_;
  std::optional<arb::LrgArbiter> circuit_lrg_;
  std::vector<circuit::CrosspointRequest> creqs_;
  std::vector<std::uint64_t> crows_;
  std::optional<circuit::ArbitrationTrace> ctrace_;

  std::optional<Divergence> divergence_;
  std::uint64_t grants_checked_ = 0;
};

}  // namespace ssq::check
