#include "check/differential.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <utility>

#include "sim/contracts.hpp"

namespace ssq::check {

namespace {

std::string class_name(TrafficClass c) { return std::string(to_string(c)); }

// Consecutive request-but-no-grant cycles tolerated under a matching engine
// before the progress guard calls starvation. Honest engines grant at least
// one pair per cycle with eligible requests; SW-QPS's emission gaps are
// bounded by window + max packet length (<= 8 + 32 flits), far below this.
constexpr Cycle kEngineStallThreshold = 128;

/// True iff `lrg` is exactly the beats relation of `order` (front = most
/// preferred): row order[k] holds the inputs behind it, so its rank is k.
/// Then every rank agrees with the order's, with no popcount per input.
bool matches_order(const arb::LrgArbiter& lrg,
                   const std::vector<InputId>& order) {
  std::uint64_t behind = 0;
  for (std::size_t k = order.size(); k-- > 0;) {
    if (lrg.row(order[k]) != behind) return false;
    behind |= 1ULL << order[k];
  }
  return true;
}

}  // namespace

DifferentialChecker::DifferentialChecker(sw::CrossbarSwitch& sim,
                                         CheckOptions opts)
    : sim_(sim), opts_(opts) {
  const auto& cfg = sim_.config();
  const std::uint32_t radix = cfg.radix;
  progress_guard_ = cfg.engine != arb::MatchKind::None;

  // The differential legs predict SSVC state exactly; anything else (baseline
  // arbiters, a matching engine, fault injection) falls back to
  // invariants-only checking.
  if (cfg.mode != sw::ArbitrationMode::SsvcQos ||
      cfg.engine != arb::MatchKind::None ||
      sim_.fault_injector() != nullptr) {
    opts_.differential = false;
  }

  if (opts_.differential) {
    refs_.reserve(radix);
    arbs_.reserve(radix);
    for (OutputId o = 0; o < radix; ++o) {
      refs_.emplace_back(radix, cfg.ssvc, sim_.workload().allocation_for(o),
                         cfg.gl_policing, cfg.gl_allowance_packets, opts_.bug);
      // The two sides must start from identical derived configuration; a
      // mismatch here is a harness bug, not a semantic divergence.
      const auto& arb = std::as_const(sim_).qos_arbiter(o);
      arbs_.push_back(&arb);
      for (InputId i = 0; i < radix; ++i) {
        SSQ_ENSURE(refs_[o].vtick(i) == arb.aux_vc(i).vtick());
      }
      SSQ_ENSURE(refs_[o].gl_vtick() == arb.gl_tracker().vtick());
    }
    reqs_.reserve(radix);
    // Sentinel versions: the first compare of every output walks its inputs.
    constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
    compared_.assign(radix, ComparedVersions{kNever, kNever});
    const std::uint32_t gb_lanes = cfg.ssvc.gb_levels();
    // The bit-level model caps the bus at 1024 wires; a 64-port bus with 16
    // GB lanes (plus GL and BE) would need 1152, so the circuit leg bows out
    // for the largest geometries rather than mis-modelling them.
    if (opts_.circuit && radix >= 2 && radix * (gb_lanes + 2) <= 1024) {
      circuit::LaneLayout layout;
      layout.radix = radix;
      layout.gb_lanes = gb_lanes;
      layout.has_gl_lane = true;
      layout.has_be_lane = true;
      layout.bus_width = radix * (gb_lanes + 2);
      circuit_.emplace(layout);
      circuit_lrg_.emplace(radix);
      creqs_.reserve(radix);
      crows_.resize(radix);
      ctrace_.emplace(layout.bus_width);
    } else {
      opts_.circuit = false;
    }
  }
}

DifferentialChecker::~DifferentialChecker() {
  if (probe_.has_value() && sim_.probe() == &*probe_) {
    sim_.attach_probe(nullptr);
  }
}

obs::SwitchProbe& DifferentialChecker::probe() {
  if (!probe_.has_value()) {
    probe_.emplace(sim_.config().radix);
    sim_.attach_probe(&*probe_);
  }
  return *probe_;
}

bool DifferentialChecker::step() {
  if (divergence_.has_value()) return false;
  sim_.step();
  return check_last_cycle();
}

bool DifferentialChecker::run(Cycle cycles) {
  if (divergence_.has_value()) return false;
  // A quiescent eligible stretch grants nothing and mutates no state either
  // model predicts from, so the checker skips it exactly as the bare switch
  // does — per-cycle checks on it would compare two untouched states.
  sim_.run(
      cycles, [this] { return check_last_cycle(); },
      [this](Cycle, Cycle) { on_fast_forward(); });
  return !divergence_.has_value();
}

bool DifferentialChecker::check_last_cycle() {
  // A fault injector attached after construction disables the differential
  // legs from this cycle on — faults legitimately break oracle predictions.
  if (opts_.differential && sim_.fault_injector() != nullptr) {
    opts_.differential = false;
  }
  check_cycle(sim_.last_cycle());
  return !divergence_.has_value();
}

void DifferentialChecker::check_cycle(const sw::CycleRecord& rec) {
  if (divergence_.has_value()) return;
  const Cycle t = rec.cycle;

  // Outputs with >= 1 request this cycle. A kept request may name a busy
  // output, which asserts nothing, so the requests count on idle outputs
  // only (rec.idle is 0 under an engine, whose view rows are idle-only).
  std::uint64_t requested = 0;
  for (const sw::PendingRequest& p : rec.pending) {
    if (p.out != kNoPort) requested |= 1ULL << p.out;
  }
  requested &= rec.idle;
  for (const std::uint64_t e : rec.eligible) requested |= e;

  granted_out_ = 0;
  granted_in_ = 0;
  for (const sw::GrantRecord& g : rec.grants) {
    check_grant(rec, g);
    if (divergence_.has_value()) return;
  }

  if (opts_.differential) {
    for (std::uint64_t w = requested & ~granted_out_; w != 0; w &= w - 1) {
      const auto o = static_cast<OutputId>(std::countr_zero(w));
      // The simulator serviced nothing at this output; the reference must
      // agree (only policer-stalled GL requests present).
      ReferenceOutput& ref = refs_[o];
      ref.advance_to(t);
      gather_requests(rec, o);
      const ReferenceOutput::Decision d = ref.pick(reqs_, t);
      if (d.winner != kNoPort) {
        fail(t, o, "missed_grant",
             "simulator granted nothing, reference picked input " +
                 std::to_string(d.winner) + " (" + class_name(d.cls) + ")\n" +
                 dump_requests(rec, o) + dump_output_state(o));
        return;
      }
    }
    if (opts_.state_compare) {
      compare_state(t, requested | granted_out_);
      if (divergence_.has_value()) return;
    }
  }

  // Packet conservation: a flow can never deliver more than it buffered nor
  // buffer more than it created. Holds in every mode, faults included.
  SSQ_EXPECT(rec.admitted.size() == rec.created.size() &&
             rec.delivered.size() == rec.created.size());
  for (std::size_t f = 0; f < rec.created.size(); ++f) {
    if (rec.admitted[f] > rec.created[f] ||
        rec.delivered[f] > rec.admitted[f]) {
      fail(t, kNoPort, "conservation",
           "flow " + std::to_string(f) + ": created " +
               std::to_string(rec.created[f]) + ", buffered " +
               std::to_string(rec.admitted[f]) + ", delivered " +
               std::to_string(rec.delivered[f]));
      return;
    }
  }

  if (progress_guard_) {
    // Work conservation under a matching engine: requests pending but zero
    // grants switch-wide, sustained past the threshold, is starvation.
    if (!rec.grants.empty() || requested == 0) {
      stall_streak_ = 0;
    } else if (++stall_streak_ >= kEngineStallThreshold) {
      fail(t, kNoPort, "starvation",
           "matching engine granted nothing for " +
               std::to_string(stall_streak_) +
               " consecutive cycles with requests pending");
      return;
    }
  }
}

void DifferentialChecker::check_grant(const sw::CycleRecord& rec,
                                      const sw::GrantRecord& g) {
  ++grants_checked_;
  const Cycle t = rec.cycle;
  const OutputId o = g.output;
  const InputId i = g.input;

  // Invariants that hold in every mode: one grant per output channel and per
  // input bus per cycle (the crossbar's physical exclusivity).
  if (((granted_out_ >> o) & 1ULL) != 0) {
    const InputId first =
        std::ranges::find(rec.grants, o, &sw::GrantRecord::output)->input;
    fail(t, o, "double_grant_output",
         "output granted twice in one cycle: first to input " +
             std::to_string(first) + ", then to input " + std::to_string(i));
    return;
  }
  if (((granted_in_ >> i) & 1ULL) != 0) {
    fail(t, o, "double_grant_input",
         "input " + std::to_string(i) +
             " granted twice in one cycle (second grant by output " +
             std::to_string(o) + ")");
    return;
  }
  granted_out_ |= 1ULL << o;
  granted_in_ |= 1ULL << i;

  if (!rec.eligible.empty() && !g.chained) {
    // An engine's cycle records every eligible (input, output) pair; a grant
    // outside that set matched an ineligible pair.
    if (i >= rec.eligible.size() || ((rec.eligible[i] >> o) & 1ULL) == 0) {
      fail(t, o, "unrequested_grant",
           "granted input " + std::to_string(i) +
               " at an output it never requested\n" + dump_requests(rec, o));
      return;
    }
  }

  if (!opts_.differential) return;
  ReferenceOutput& ref = refs_[o];
  ref.advance_to(t);
  const bool gl_ok = ref.gl_eligible(t);
  if (g.chained) {
    // No arbitration ran; only the policer gates a chained GL grant.
    if (g.cls == TrafficClass::GuaranteedLatency && !gl_ok) {
      fail(t, o, "chain_gl_ineligible",
           "simulator chained a GL packet the reference policer stalls\n" +
               dump_output_state(o));
      return;
    }
  } else {
    gather_requests(rec, o);
    const ReferenceOutput::Decision d = ref.pick(reqs_, t);
    if (d.winner != i || d.cls != g.cls) {
      std::ostringstream os;
      os << "simulator granted input " << i << " (" << class_name(g.cls)
         << "), reference picked ";
      if (d.winner == kNoPort) {
        os << "no winner";
      } else {
        os << "input " << d.winner << " (" << class_name(d.cls) << ")";
      }
      os << '\n' << dump_requests(rec, o) << dump_output_state(o);
      fail(t, o, "winner_mismatch", os.str());
      return;
    }
    if (opts_.circuit) {
      check_circuit(rec, g, ref, gl_ok);
      if (divergence_.has_value()) return;
    }
  }
  ref.on_grant(i, g.cls, t);
}

void DifferentialChecker::gather_requests(const sw::CycleRecord& rec,
                                          OutputId o) {
  reqs_.clear();
  for (InputId i = 0; i < rec.pending.size(); ++i) {
    const sw::PendingRequest& p = rec.pending[i];
    if (p.out == o) reqs_.push_back({i, p.cls, p.length});
  }
}

void DifferentialChecker::check_circuit(const sw::CycleRecord& rec,
                                        const sw::GrantRecord& g,
                                        const ReferenceOutput& ref,
                                        bool gl_ok) {
  // Build the crosspoint request vector the wires would see, from the
  // reference model's view of the state (levels + LRG order), so the circuit
  // leg is independent of the production arbiter.
  creqs_.clear();
  for (const auto& r : reqs_) {
    circuit::CrosspointRequest cr;
    cr.input = r.input;
    switch (r.cls) {
      case TrafficClass::GuaranteedBandwidth:
        cr.kind = circuit::RequestKind::Gb;
        cr.level = ref.level(r.input);
        break;
      case TrafficClass::BestEffort:
        cr.kind = circuit::RequestKind::BestEffort;
        break;
      case TrafficClass::GuaranteedLatency:
        if (gl_ok) {
          cr.kind = circuit::RequestKind::Gl;
        } else if (ref.policing() == core::GlPolicing::Demote) {
          cr.kind = circuit::RequestKind::BestEffort;  // demoted to BE lane
        } else {
          continue;  // stalled: the crosspoint does not assert
        }
        break;
    }
    creqs_.push_back(cr);
  }
  if (creqs_.empty()) {
    fail(rec.cycle, g.output, "circuit_no_request",
         "simulator granted input " + std::to_string(g.input) +
             " but no crosspoint would assert a request\n" +
             dump_requests(rec, g.output) + dump_output_state(g.output));
    return;
  }
  ref.lrg_rows(crows_);
  circuit_lrg_->set_matrix(crows_);
  circuit_->arbitrate_into(creqs_, *circuit_lrg_, *ctrace_);
  if (ctrace_->winner != g.input) {
    std::ostringstream os;
    os << "bit-level circuit elected ";
    if (ctrace_->winner == kNoPort) {
      os << "no winner";
    } else {
      os << "input " << ctrace_->winner;
    }
    os << ", simulator granted input " << g.input << '\n'
       << dump_requests(rec, g.output) << dump_output_state(g.output);
    fail(rec.cycle, g.output, "circuit_mismatch", os.str());
  }
}

void DifferentialChecker::compare_state(Cycle t, std::uint64_t touched) {
  const std::uint32_t radix = sim_.config().radix;
  // Every epoch base on both sides is a multiple of the one shared epoch
  // length, so the first checked cycle of an epoch is the only one on which
  // an output nobody touched can wrap: sweep every output then.
  const Cycle epoch = t >> sim_.config().ssvc.lsb_bits;
  const bool sweep = epoch != swept_epoch_;
  swept_epoch_ = epoch;
  for (OutputId o = 0; o < radix; ++o) {
    if (!sweep && ((touched >> o) & 1ULL) == 0 &&
        compared_[o] ==
            ComparedVersions{arbs_[o]->state_version(), refs_[o].version()}) {
      // Untouched, unwritten since its last passing compare, and no wrap
      // due: every check below would compare the states found equal then
      // (the GL bound sane(t) is monotone in t).
      continue;
    }
    sim_.qos_arbiter(o).advance_to(t);
    refs_[o].advance_to(t);
    // Read-only from here: the mutable accessors count as writes.
    const core::OutputQosArbiter& arb = *arbs_[o];
    const ReferenceOutput& ref = refs_[o];
    const auto mismatch = [&](const std::string& what) {
      fail(t, o, "state_mismatch", what + '\n' + dump_output_state(o));
    };
    if (arb.epoch_rt() != ref.rt()) {
      mismatch("epoch real time: sim " + std::to_string(arb.epoch_rt()) +
               ", ref " + std::to_string(ref.rt()));
      return;
    }
    if (arb.gl_tracker().clock() != ref.gl_clock()) {
      mismatch("GL clock: sim " + std::to_string(arb.gl_tracker().clock()) +
               ", ref " + std::to_string(ref.gl_clock()));
      return;
    }
    if (!arb.gl_tracker().sane(t)) {
      mismatch("GL clock violates the Stall policing bound");
      return;
    }
    // The per-input state changes only through a versioned write on either
    // side. If neither side wrote this output since its last passing
    // compare, both still hold the states found equal then.
    const ComparedVersions versions{arb.state_version(), ref.version()};
    if (versions == compared_[o]) continue;
    // Equal matrices imply equal ranks; only a differing matrix needs the
    // per-input rank compare, which then finds the first rank that differs.
    const bool ranks_agree = matches_order(arb.lrg(), ref.lrg_order());
    for (InputId i = 0; i < radix; ++i) {
      const auto& vc = arb.aux_vc(i);
      if (vc.value() > vc.cap()) {
        mismatch("auxVC[" + std::to_string(i) + "] above its cap: " +
                 std::to_string(vc.value()) + " > " + std::to_string(vc.cap()));
        return;
      }
      if (vc.value() != ref.value(i)) {
        mismatch("auxVC[" + std::to_string(i) + "] value: sim " +
                 std::to_string(vc.value()) + ", ref " +
                 std::to_string(ref.value(i)));
        return;
      }
      if (arb.gb_level(i) != ref.level(i) ||
          arb.sensed_gb_level(i) != ref.level(i)) {
        mismatch("GB level[" + std::to_string(i) + "]: sim " +
                 std::to_string(arb.gb_level(i)) + " (sensed " +
                 std::to_string(arb.sensed_gb_level(i)) + "), ref " +
                 std::to_string(ref.level(i)));
        return;
      }
      if (!ranks_agree && arb.lrg().rank(i) != ref.lrg_rank(i)) {
        mismatch("LRG rank[" + std::to_string(i) + "]: sim " +
                 std::to_string(arb.lrg().rank(i)) + ", ref " +
                 std::to_string(ref.lrg_rank(i)));
        return;
      }
    }
    compared_[o] = versions;
  }
}

void DifferentialChecker::fail(Cycle t, OutputId o, std::string kind,
                               std::string detail) {
  if (divergence_.has_value()) return;
  divergence_ = Divergence{t, o, std::move(kind), std::move(detail)};
}

std::string DifferentialChecker::dump_requests(const sw::CycleRecord& rec,
                                               OutputId o) {
  std::ostringstream os;
  os << "requests:";
  bool any = false;
  for (InputId i = 0; i < rec.pending.size(); ++i) {
    if (rec.pending[i].out != o) continue;
    os << " [in=" << i << ' ' << class_name(rec.pending[i].cls) << ']';
    any = true;
  }
  // A matching's eligible pair names no class.
  for (InputId i = 0; i < rec.eligible.size(); ++i) {
    if (((rec.eligible[i] >> o) & 1ULL) == 0) continue;
    os << " [in=" << i << ']';
    any = true;
  }
  if (!any) os << " (none)";
  os << '\n';
  return os.str();
}

std::string DifferentialChecker::dump_output_state(OutputId o) const {
  std::ostringstream os;
  os << "state (sim | ref) for output " << o << ":\n";
  if (!opts_.differential || sim_.config().mode != sw::ArbitrationMode::SsvcQos) {
    os << "  (no differential state)\n";
    return os.str();
  }
  const auto& arb = std::as_const(sim_).qos_arbiter(o);
  const ReferenceOutput& ref = refs_[o];
  os << "  rt " << arb.epoch_rt() << '|' << ref.rt() << "  gl_clock "
     << arb.gl_tracker().clock() << '|' << ref.gl_clock() << "  gl_vtick "
     << ref.gl_vtick() << '\n';
  for (InputId i = 0; i < sim_.config().radix; ++i) {
    os << "  in " << i << ": vc " << arb.aux_vc(i).value() << '|'
       << ref.value(i) << "  lvl " << arb.gb_level(i) << '|' << ref.level(i)
       << "  sensed " << arb.sensed_gb_level(i) << "  rank "
       << arb.lrg().rank(i) << '|' << ref.lrg_rank(i) << "  vtick "
       << ref.vtick(i) << '\n';
  }
  return os.str();
}

}  // namespace ssq::check
