// StepScratch — the per-cycle scratch arena of CrossbarSwitch::step().
//
// Every container the cycle loop needs is owned here, sized once at switch
// construction, and reused every cycle, so the steady-state step() performs
// no heap allocation (asserted by tests/hotpath_alloc_test.cpp). Ownership
// rule: the arena belongs to exactly one CrossbarSwitch and only its step()
// writes it. The part that describes the cycle — the asserted requests, the
// engine's eligible pairs and the committed grants — is also the cycle
// record (CrossbarSwitch::last_cycle()): read-only from the end of one
// step() until the start of the next. Everything else is dead once
// pick()/on_grant() return.
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
  std::uint32_t prio = 0;  // legacy 4-level message priority
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
  /// Single-request mode only: pending[i] = input i's asserted request.
  std::span<const PendingRequest> pending;
  /// Matching engines only: bit o of eligible[i] = input i may match o.
  std::span<const std::uint64_t> eligible;
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
    bucket_begin.resize(radix + 1);
    bucket_cursor.resize(radix);
    base_reqs.reserve(radix);
    grant_to.reserve(radix);
    grant_cls.reserve(radix);
    restage.reserve(1);
    masks.resize(radix);
    eng_eligible.resize(radix);
    eng_candidates.resize(radix);
    eng_voq.resize(static_cast<std::size_t>(radix) * radix);
    eng_match.resize(radix);
    grants.reserve(radix);
  }

  // ---- the cycle record (see CycleRecord) ----
  Cycle cycle = 0;  // the cycle the last step() ran
  // At most one grant per output per cycle (a grant seizes its channel), so
  // the reserved radix slots never regrow.
  std::vector<GrantRecord> grants;

  // ---- single-request mode (arbitrate) ----
  /// pending[i] = input i's asserted request (out == kNoPort: none).
  std::vector<PendingRequest> pending;
  /// Baseline arbiters' counting sort: output o's requests occupy
  /// [bucket_begin[o], bucket_begin[o+1]) of base_reqs.
  std::vector<std::uint32_t> bucket_begin;
  std::vector<std::uint32_t> bucket_cursor;

  // ---- baseline request array, grouped by output, input order preserved ----
  // Also reused as the per-output gather buffer by the iterative matcher.
  std::vector<arb::Request> base_reqs;

  // ---- iterative matching (arbitrate_matched) ----
  std::vector<InputId> grant_to;         // per output
  std::vector<TrafficClass> grant_cls;   // per output
  std::vector<arb::Request> restage;     // 1-slot re-pick buffer

  // ---- SSVC single-request mode (arbitrate_masked), every kernel ----
  // Per-output class request masks (bit i == input i requests output o in
  // that class), fed straight to OutputQosArbiter::pick_masked().
  std::vector<core::ClassMasks> masks;  // per output

  // ---- matching engines (arbitrate_engine) ----
  // The MatchView handed to the engine points into these; eng_match receives
  // the per-output matched inputs back.
  std::vector<std::uint64_t> eng_eligible;    // per input
  std::vector<std::uint64_t> eng_candidates;  // per input
  std::vector<std::uint32_t> eng_voq;         // radix x radix, row-major
  std::vector<InputId> eng_match;             // per output
};

}  // namespace ssq::sw
