// StepScratch — the cycle arena of CrossbarSwitch::step().
//
// Every container the cycle loop needs is owned here, sized once at switch
// construction, and reused every cycle, so the steady-state step() performs
// no heap allocation (asserted by tests/hotpath_alloc_test.cpp). Ownership
// rule: the arena belongs to exactly one CrossbarSwitch and only its step()
// writes it. The part that describes the cycle — the asserted requests, the
// matching view and the committed grants — is also the
// cycle record (CrossbarSwitch::last_cycle()): read-only from the end of one
// step() until the start of the next.
//
// Two kinds of state live here. State kept ACROSS cycles, valid at every
// cycle rather than rebuilt per cycle:
//   - the single-request mode's requests (`pending`, `want`/`wanted_by`,
//     `masks`, `requested`, `idle`): step() re-selects only the inputs whose
//     selection inputs changed (see CrossbarSwitch::select_requests). A kept
//     request may name an output that has turned busy: it is the request
//     select_one() asserts once that output is idle again, and it counts only
//     on idle outputs;
//   - the matching view's `candidates`, `candidate_rows` and `voq` (under
//     an engine): CrossbarSwitch::fill_view() rebuilds only the rows of
//     the inputs whose heads or crosspoints changed, and a drained flit
//     updates its one `voq` cell.
// Everything else is per-cycle scratch: the view's `eligible`, derived each
// cycle from the kept candidates, busy ports and the idle set, and the
// buffers that die once pick()/on_grant()/match() return.
//
// The matching masks are single uint64_t words: the Swizzle Switch tops out
// at radix 64 (config.validate() enforces it), so one word replaces the
// std::vector<bool> pair the matcher used to allocate per cycle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arb/arbiter.hpp"
#include "core/output_arbiter.hpp"
#include "sim/contracts.hpp"
#include "sim/types.hpp"

namespace ssq::sw {

/// The single request an idle input asserts in single-request mode.
struct PendingRequest {
  OutputId out = kNoPort;
  TrafficClass cls = TrafficClass::BestEffort;
  std::uint32_t length = 0;
  Cycle buffered = 0;
  FlowId flow = 0;  // the head's flow (baselines look up its priority)

  friend bool operator==(const PendingRequest&,
                         const PendingRequest&) = default;
};

/// One grant of a cycle, chained grants (Packet Chaining) included.
struct GrantRecord {
  InputId input = kNoPort;
  OutputId output = kNoPort;
  TrafficClass cls = TrafficClass::BestEffort;
  bool chained = false;
};

/// What one step() did (CrossbarSwitch::last_cycle()). The spans point into
/// the switch and stay valid until its next step().
struct CycleRecord {
  Cycle cycle = 0;
  /// Single-request mode only: pending[i] = input i's kept request,
  /// masks[o] = the same requests packed per output and class, requested =
  /// the outputs with >= 1 request, idle = the outputs that could start a
  /// transmission this cycle. A kept request may name a busy output; it is
  /// asserted only when its output is idle, so a reader intersects pending,
  /// masks and requested with idle.
  std::span<const PendingRequest> pending;
  std::span<const core::ClassMasks> masks;
  std::uint64_t requested = 0;
  std::uint64_t idle = 0;
  /// Matching engines only: bit o of eligible[i] = input i may match o this
  /// cycle; bit o of candidates[i] = input i holds a head for o over a live
  /// crosspoint; voq[i * radix + o] = the backlog in flits behind each
  /// candidate crosspoint, 0 off the candidates.
  std::span<const std::uint64_t> eligible;
  std::span<const std::uint64_t> candidates;
  std::span<const std::uint32_t> voq;
  std::span<const GrantRecord> grants;  // commit order
  /// Per-flow packet counts since construction.
  std::span<const std::uint64_t> created, admitted, delivered;
};

struct StepScratch {
  /// Empty arena; CrossbarSwitch sizes it (once) after config validation.
  StepScratch() = default;

  explicit StepScratch(std::uint32_t radix) {
    SSQ_EXPECT(radix >= 1 && radix <= 64);
    pending.resize(radix);
    want.resize(radix);
    wanted_by.resize(radix);
    masks.resize(radix);
    base_reqs.reserve(radix);
    eligible.resize(radix);
    candidates.resize(radix);
    voq.resize(static_cast<std::size_t>(radix) * radix);
    match.resize(radix);
    grants.reserve(radix);
  }

  // ---- the cycle record (see CycleRecord) ----
  Cycle cycle = 0;  // the cycle the last step() ran
  // At most one grant per output per cycle (a grant seizes its channel), so
  // the reserved radix slots never regrow.
  std::vector<GrantRecord> grants;

  // ---- single-request mode: requests kept across cycles ----
  /// pending[i] = input i's kept request (out == kNoPort: none); asserted
  /// this cycle only when its output is in `idle`.
  std::vector<PendingRequest> pending;
  /// want[i] = outputs input i holds a head for (InputPort::head_outputs())
  /// as of its last selection; wanted_by[o] = its transpose, the inputs
  /// holding a head for o, which an output turning idle marks.
  std::vector<std::uint64_t> want;       // per input
  std::vector<std::uint64_t> wanted_by;  // per output
  /// Per-output class masks of `pending` (bit i == input i requests output
  /// o in that class), fed straight to OutputQosArbiter::pick_masked() and
  /// gathered into request lists for the baseline arbiters. An input's bit
  /// moves when it is selected again.
  std::vector<core::ClassMasks> masks;  // per output
  std::uint64_t requested = 0;          // bit o == masks[o].any() != 0
  std::uint64_t idle = 0;               // outputs idle at the last selection

  // ---- baseline request list of one output, input order preserved ----
  std::vector<arb::Request> base_reqs;

  // ---- the matching view (fill_view, engines only) ----
  // What arb::MatchView points into: per input, the outputs it may match
  // this cycle (derived per cycle), the outputs it holds a head for over a
  // live crosspoint (kept) and the kept backlog matrix. candidate_rows has
  // bit i set iff candidates[i] != 0.
  std::vector<std::uint64_t> eligible;    // per input
  std::vector<std::uint64_t> candidates;  // per input
  std::uint64_t candidate_rows = 0;
  std::vector<std::uint32_t> voq;         // radix x radix, row-major

  // ---- matching engines (arbitrate_engine) ----
  std::vector<InputId> match;  // per output: the matched input back
};

}  // namespace ssq::sw
