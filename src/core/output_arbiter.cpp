#include "core/output_arbiter.hpp"

#include <algorithm>
#include <bit>

#include "circuit/lane_masks.hpp"
#include "core/simd.hpp"
#include "obs/probe.hpp"

namespace ssq::core {

namespace {

/// Vtick for input i's GB reservation, quantised to the register.
std::uint64_t gb_vtick(const SsvcParams& params, const OutputAllocation& alloc,
                       InputId i) {
  const double rate = alloc.gb_rate[i];
  if (rate <= 0.0) return 1;  // inactive crosspoint; value never used
  return quantize_vtick(params, ideal_vtick(rate, alloc.gb_packet_len));
}

std::uint64_t gl_vtick(const SsvcParams& params,
                       const OutputAllocation& alloc) {
  if (alloc.gl_rate <= 0.0) return 0;  // GL tracking disabled
  return quantize_vtick(params, ideal_vtick(alloc.gl_rate, alloc.gl_packet_len));
}

}  // namespace

OutputQosArbiter::OutputQosArbiter(std::uint32_t radix,
                                   const SsvcParams& params,
                                   OutputAllocation alloc,
                                   GlPolicing policing,
                                   std::uint32_t gl_allowance_packets,
                                   ArbKernel kernel)
    : radix_(radix),
      params_(params),
      alloc_(std::move(alloc)),
      lrg_(radix),
      gl_(gl_vtick(params, alloc_), gl_allowance_packets, policing),
      kernel_(kernel) {
  SSQ_EXPECT(radix >= 1 && radix <= 64);
  params_.validate();
  alloc_.validate(radix);
  gb_vc_.reserve(radix);
  for (InputId i = 0; i < radix; ++i) {
    gb_vc_.emplace_back(params_, gb_vtick(params_, alloc_, i));
    if (alloc_.gb_rate[i] > 0.0) gb_capable_ |= 1ULL << i;
  }
  lane_mask_.assign(params_.gb_levels(), 0);
  lane_mask_[0] = circuit::all_inputs_mask(radix);
  bucket_.reserve(radix);
}

AuxVc& OutputQosArbiter::aux_vc_mut(InputId i) {
  SSQ_EXPECT(i < radix_);
  // Whoever takes this reference (fault injector, scrubber, tests) may move
  // the counter out from under the incremental lane-mask mirror: mark the
  // input stale so the next masked pick re-reads its level.
  dirty_ |= 1ULL << i;
  ++version_;
  return gb_vc_[i];
}

void OutputQosArbiter::resync_input(InputId i) {
  const std::uint64_t bit = 1ULL << i;
  for (auto& lm : lane_mask_) lm &= ~bit;
  lane_mask_[gb_vc_[i].arb_level()] |= bit;
}

void OutputQosArbiter::resync_lane_masks() {
  std::uint64_t still = 0;
  for (std::uint64_t m = dirty_; m != 0; m &= m - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(m));
    resync_input(i);
    // A corrupted thermometer vector no longer follows the incremental
    // transforms (the XOR overlay is pinned to physical cells while the
    // logical level keeps shifting), so the input stays dirty until the
    // scrubber clears the corruption.
    if (gb_vc_[i].corrupted()) still |= 1ULL << i;
  }
  dirty_ = still;
}

void OutputQosArbiter::advance_to(Cycle now) {
  SSQ_EXPECT(now >= last_now_);
  last_now_ = now;
  SSQ_EXPECT(now >= epoch_base_);
  rt_ = now - epoch_base_;

  // The real-time clock counter is lsb_bits wide in every finite-counter
  // design; its wrap ("once that counter saturates") subtracts one MSB from
  // every auxVC and shifts the thermometer codes down. This runs for all
  // three management policies — it is how real time is kept.
  if (params_.policy != CounterPolicy::None) {
    const std::uint64_t epoch = params_.epoch_cycles();
    while (rt_ >= epoch) {
      ++version_;
      for (auto& vc : gb_vc_) vc.epoch_wrap();
      circuit::lane_masks_shift_down(lane_mask_);
      epoch_base_ += epoch;
      rt_ -= epoch;
      if (probe_ != nullptr) probe_->epoch_wrap(now, self_);
    }
  }
}

void OutputQosArbiter::on_saturation(Cycle now) {
  // Global management event when any auxVC register saturates despite the
  // periodic subtraction — which is what happens on multi-packet bursts
  // from low-rate (large-Vtick) flows, the paper's "especially during
  // bursty injection" case. The subtract policy merely clamps the register
  // (a bounded debt that still takes ~cap cycles to decay); halving and
  // resetting erase the banked debt for everyone at once, "reduc[ing] the
  // number of unique thermometer code values in existence" so LRG resolves
  // more of the contention.
  switch (params_.policy) {
    case CounterPolicy::Halve:
      for (auto& vc : gb_vc_) vc.halve();
      circuit::lane_masks_halve(lane_mask_);
      if (probe_ != nullptr) probe_->mgmt_event(now, self_, /*halve=*/true);
      break;
    case CounterPolicy::Reset:
      for (auto& vc : gb_vc_) vc.reset();
      circuit::lane_masks_reset(lane_mask_, circuit::all_inputs_mask(radix_));
      if (probe_ != nullptr) probe_->mgmt_event(now, self_, /*halve=*/false);
      break;
    case CounterPolicy::SubtractRealClock:
    case CounterPolicy::None:
      break;  // no global event for these policies; registers clamp
  }
}

InputId OutputQosArbiter::lrg_pick(std::span<const ClassRequest> reqs) const {
  if (reqs.empty()) return kNoPort;
  std::uint64_t mask = 0;
  for (const auto& r : reqs) mask |= 1ULL << r.input;
  for (const auto& r : reqs) {
    const std::uint64_t others = mask & ~(1ULL << r.input);
    if ((lrg_.row(r.input) & others) == others) return r.input;
  }
  if (lrg_.fault_tolerant()) {
    // Corrupted matrix: degrade to the max-out-degree requester (first in
    // request order on ties) until the scrubber rebuilds the total order.
    InputId best = reqs.front().input;
    int best_deg = -1;
    for (const auto& r : reqs) {
      const std::uint64_t others = mask & ~(1ULL << r.input);
      const int deg = std::popcount(lrg_.row(r.input) & others);
      if (deg > best_deg) {
        best_deg = deg;
        best = r.input;
      }
    }
    return best;
  }
  SSQ_ENSURE(false && "LRG matrix lost its total order");
  return kNoPort;
}

InputId OutputQosArbiter::lrg_winner(std::uint64_t mask) const {
  SSQ_EXPECT(mask != 0);
  // Same resolution as lrg_pick over the requesters in ascending input
  // order — the order the crossbar always presents. A valid LRG matrix is a
  // total order, so the winner is order-independent.
  if (kernel_ == ArbKernel::Simd) {
    // Vector sweep over all rows at once; the first covering requester is
    // the first set bit of the intersection — the same input the per-bit
    // scan below lands on. An empty intersection (corrupt matrix) falls
    // through to the shared fault-tolerant degradation.
    const std::uint64_t covering =
        simd::covering_mask(lrg_.rows_data(), radix_, mask) & mask;
    if (covering != 0) {
      return static_cast<InputId>(std::countr_zero(covering));
    }
  } else {
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(m));
      const std::uint64_t others = mask & ~(1ULL << i);
      if ((lrg_.row(i) & others) == others) return i;
    }
  }
  if (lrg_.fault_tolerant()) {
    InputId best = static_cast<InputId>(std::countr_zero(mask));
    int best_deg = -1;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(m));
      const std::uint64_t others = mask & ~(1ULL << i);
      const int deg = std::popcount(lrg_.row(i) & others);
      if (deg > best_deg) {
        best_deg = deg;
        best = i;
      }
    }
    return best;
  }
  SSQ_ENSURE(false && "LRG matrix lost its total order");
  return kNoPort;
}

InputId OutputQosArbiter::pick(std::span<const ClassRequest> requests,
                               Cycle now) {
  SSQ_EXPECT(now == last_now_ && "call advance_to(now) before pick()");
  if (kernel_ != ArbKernel::Scalar) {
    // One pass packs the request set into the three class masks; all the
    // per-request validity checks of the scalar kernel happen here.
    std::uint64_t gl = 0;
    std::uint64_t gb = 0;
    std::uint64_t be = 0;
    std::uint64_t packed = 0;
    for (const auto& r : requests) {
      SSQ_EXPECT(r.input < radix_);
      const std::uint64_t bit = 1ULL << r.input;
      SSQ_EXPECT((packed & bit) == 0);
      packed |= bit;
      switch (r.cls) {
        case TrafficClass::GuaranteedLatency: gl |= bit; break;
        case TrafficClass::GuaranteedBandwidth: gb |= bit; break;
        case TrafficClass::BestEffort: be |= bit; break;
      }
    }
    return pick_masked(gl, gb, be, now);
  }
  std::uint64_t seen = 0;
  for (const auto& r : requests) {
    SSQ_EXPECT(r.input < radix_);
    SSQ_EXPECT(((seen >> r.input) & 1ULL) == 0);
    seen |= 1ULL << r.input;
  }
  if (requests.empty()) return kNoPort;

  // Stage 1 — GL override (Fig. 3): any *eligible* GL request discharges all
  // GB lanes; GL inputs LRG-arbitrate in the GL lane.
  const bool gl_ok = gl_.eligible(now);
  std::vector<ClassRequest>& bucket = bucket_;  // construction-time capacity
  bucket.clear();
  if (gl_ok) {
    for (const auto& r : requests)
      if (r.cls == TrafficClass::GuaranteedLatency) bucket.push_back(r);
    if (!bucket.empty()) {
      const InputId w = lrg_pick(bucket);
      if (probe_ != nullptr && bucket.size() > 1) {
        probe_->lane_tie_break(now, self_, TrafficClass::GuaranteedLatency, w,
                               0, static_cast<std::uint32_t>(bucket.size()));
      }
      picked_class_ = TrafficClass::GuaranteedLatency;
      return w;
    }
  } else if (probe_ != nullptr) {
    for (const auto& r : requests) {
      if (r.cls == TrafficClass::GuaranteedLatency) {
        probe_->gl_stall(now, self_, gl_.overrun(now));
        break;
      }
    }
  }

  // Stage 2 — GB: smallest thermometer level wins; LRG breaks ties in-lane.
  // The comparison reads the *sensed* level — the stored thermometer vector
  // (which a fault may have corrupted) through the quarantine remap — not
  // the logical register, because that is what the bitlines discharge on.
  bucket.clear();
  std::uint32_t min_level = params_.gb_levels();
  for (const auto& r : requests) {
    if (r.cls != TrafficClass::GuaranteedBandwidth) continue;
    SSQ_EXPECT(alloc_.gb_rate[r.input] > 0.0 &&
               "GB request from an input with no reservation");
    min_level = std::min(min_level, sensed_gb_level(r.input));
  }
  for (const auto& r : requests) {
    if (r.cls == TrafficClass::GuaranteedBandwidth &&
        sensed_gb_level(r.input) == min_level) {
      bucket.push_back(r);
    }
  }
  if (!bucket.empty()) {
    const InputId w = lrg_pick(bucket);
    if (probe_ != nullptr && bucket.size() > 1) {
      probe_->lane_tie_break(now, self_, TrafficClass::GuaranteedBandwidth, w,
                             min_level,
                             static_cast<std::uint32_t>(bucket.size()));
    }
    picked_class_ = TrafficClass::GuaranteedBandwidth;
    return w;
  }

  // Stage 3 — BE, plus GL requests demoted by the policer if so configured.
  bucket.clear();
  for (const auto& r : requests) {
    if (r.cls == TrafficClass::BestEffort) bucket.push_back(r);
    if (r.cls == TrafficClass::GuaranteedLatency && !gl_ok &&
        gl_.policing() == GlPolicing::Demote) {
      bucket.push_back(r);
    }
  }
  if (!bucket.empty()) {
    std::uint64_t dup = 0;  // an input could appear as both GL and BE? No —
    for (const auto& r : bucket) {
      SSQ_EXPECT(((dup >> r.input) & 1ULL) == 0);
      dup |= 1ULL << r.input;
    }
    const InputId w = lrg_pick(bucket);
    if (probe_ != nullptr && bucket.size() > 1) {
      probe_->lane_tie_break(now, self_, TrafficClass::BestEffort, w, 0,
                             static_cast<std::uint32_t>(bucket.size()));
    }
    for (const auto& r : bucket) {
      if (r.input == w) picked_class_ = r.cls;
    }
    return w;
  }

  // Only stalled GL requests present: no winner this cycle.
  return kNoPort;
}

InputId OutputQosArbiter::pick_masked(std::uint64_t gl_mask,
                                      std::uint64_t gb_mask,
                                      std::uint64_t be_mask, Cycle now) {
  SSQ_EXPECT(now == last_now_ && "call advance_to(now) before pick_masked()");
  const std::uint64_t all = circuit::all_inputs_mask(radix_);
  SSQ_EXPECT(((gl_mask | gb_mask | be_mask) & ~all) == 0);
  SSQ_EXPECT((gl_mask & gb_mask) == 0 && (gl_mask & be_mask) == 0 &&
             (gb_mask & be_mask) == 0 &&
             "an input requests in at most one class");
  SSQ_EXPECT((gb_mask & ~gb_capable_) == 0 &&
             "GB request from an input with no reservation");
  if ((gl_mask | gb_mask | be_mask) == 0) return kNoPort;
  if (dirty_ != 0) resync_lane_masks();

  // Stage 1 — GL override (Fig. 3): any *eligible* GL request discharges all
  // GB lanes; GL inputs LRG-arbitrate in the GL lane.
  const bool gl_ok = gl_.eligible(now);
  if (gl_ok) {
    if (gl_mask != 0) {
      const InputId w = lrg_winner(gl_mask);
      if (probe_ != nullptr && std::popcount(gl_mask) > 1) {
        probe_->lane_tie_break(
            now, self_, TrafficClass::GuaranteedLatency, w, 0,
            static_cast<std::uint32_t>(std::popcount(gl_mask)));
      }
      picked_class_ = TrafficClass::GuaranteedLatency;
      return w;
    }
  } else if (probe_ != nullptr && gl_mask != 0) {
    probe_->gl_stall(now, self_, gl_.overrun(now));
  }

  // Stage 2 — GB: AND the requester mask into the lane masks lowest-lane
  // (= highest-priority) first; the first non-empty intersection is the
  // winning lane, and LRG breaks the tie inside it. Under a quarantine
  // remap, consecutive raw lanes can share a sensed level (lane_map_ is
  // monotone with contiguous equal-value runs), so the candidate set absorbs
  // the rest of the run.
  if (gb_mask != 0) {
    const auto n = static_cast<std::uint32_t>(lane_mask_.size());
    std::uint64_t cand = 0;
    std::uint32_t lane = 0;
    if (kernel_ == ArbKernel::Simd) {
      lane = simd::first_hit_lane(lane_mask_.data(), n, gb_mask);
      if (lane < n) cand = gb_mask & lane_mask_[lane];
    } else {
      for (; lane < n; ++lane) {
        cand = gb_mask & lane_mask_[lane];
        if (cand != 0) break;
      }
    }
    SSQ_ENSURE(cand != 0 && "every input occupies exactly one lane");
    std::uint32_t min_level = lane;
    if (!lane_map_.empty()) {
      min_level = lane_map_[lane];
      for (std::uint32_t m = lane + 1; m < n && lane_map_[m] == min_level;
           ++m) {
        cand |= gb_mask & lane_mask_[m];
      }
    }
    const InputId w = lrg_winner(cand);
    if (probe_ != nullptr && std::popcount(cand) > 1) {
      probe_->lane_tie_break(now, self_, TrafficClass::GuaranteedBandwidth, w,
                             min_level,
                             static_cast<std::uint32_t>(std::popcount(cand)));
    }
    picked_class_ = TrafficClass::GuaranteedBandwidth;
    return w;
  }

  // Stage 3 — BE, plus GL requests demoted by the policer if so configured.
  const std::uint64_t demoted =
      (!gl_ok && gl_.policing() == GlPolicing::Demote) ? gl_mask : 0;
  const std::uint64_t stage3 = be_mask | demoted;
  if (stage3 != 0) {
    const InputId w = lrg_winner(stage3);
    if (probe_ != nullptr && std::popcount(stage3) > 1) {
      probe_->lane_tie_break(
          now, self_, TrafficClass::BestEffort, w, 0,
          static_cast<std::uint32_t>(std::popcount(stage3)));
    }
    picked_class_ = ((demoted >> w) & 1ULL) != 0
                        ? TrafficClass::GuaranteedLatency
                        : TrafficClass::BestEffort;
    return w;
  }

  // Only stalled GL requests present: no winner this cycle.
  return kNoPort;
}

void OutputQosArbiter::on_grant(InputId input, TrafficClass cls,
                                std::uint32_t length, Cycle now) {
  SSQ_EXPECT(input < radix_);
  SSQ_EXPECT(length >= 1);
  SSQ_EXPECT(now == last_now_ && "call advance_to(now) before on_grant()");

  ++version_;  // covers on_saturation's halve/reset of every counter
  lrg_.on_grant(input, length, now);
  switch (cls) {
    case TrafficClass::GuaranteedBandwidth: {
      const bool saturated = gb_vc_[input].on_grant(rt_);
      if (saturated && probe_ != nullptr) {
        probe_->auxvc_saturated(now, self_, input, gb_vc_[input].cap());
      }
      if (saturated && (params_.policy == CounterPolicy::Halve ||
                        params_.policy == CounterPolicy::Reset)) {
        on_saturation(now);
      }
      // The grant moved this input's counter (and a management event may
      // have moved everyone); re-slot the granted input's lane-mask bit.
      resync_input(input);
      break;
    }
    case TrafficClass::GuaranteedLatency:
      gl_.on_grant(now);
      break;
    case TrafficClass::BestEffort:
      break;
  }
}

void OutputQosArbiter::quarantine_lane(std::uint32_t lane) {
  SSQ_EXPECT(lane < params_.gb_levels());
  if ((quarantined_ >> lane) & 1ULL) return;
  quarantined_ |= 1ULL << lane;
  ++version_;
  // Remap each level to its rank among the healthy lanes below it: the
  // quarantined lane's occupants land on the nearest healthy lane beneath,
  // compressing the code to fewer distinct levels.
  const std::uint32_t n = params_.gb_levels();
  lane_map_.assign(n, 0);
  for (std::uint32_t l = 1; l < n; ++l) {
    const std::uint64_t healthy_below = ~quarantined_ & ((1ULL << l) - 1);
    lane_map_[l] = static_cast<std::uint32_t>(std::popcount(healthy_below));
  }
  if (probe_ != nullptr) probe_->lane_quarantined(last_now_, self_, lane);
}

std::uint32_t OutputQosArbiter::scrub(Cycle now) {
  advance_to(now);
  ++version_;
  std::uint32_t repairs = 0;
  for (InputId i = 0; i < radix_; ++i) {
    const auto outcome = gb_vc_[i].scrub(rt_);
    if (outcome == AuxVc::ScrubOutcome::Clean) continue;
    ++repairs;
    dirty_ |= 1ULL << i;  // repaired level: re-slot the lane-mask bit
    if (probe_ != nullptr) {
      probe_->scrub_repair(now, self_, i,
                           outcome == AuxVc::ScrubOutcome::ValueReset
                               ? obs::kRepairAuxValue
                               : obs::kRepairAuxCode);
    }
  }
  if (lrg_.repair_order()) {
    ++repairs;
    if (probe_ != nullptr) {
      probe_->scrub_repair(now, self_, kNoPort, obs::kRepairLrgOrder);
    }
  }
  if (gl_.scrub(now)) {
    ++repairs;
    if (probe_ != nullptr) {
      probe_->scrub_repair(now, self_, kNoPort, obs::kRepairGlClock);
    }
  }
  if (dirty_ != 0) resync_lane_masks();
  return repairs;
}

void OutputQosArbiter::reset() {
  ++version_;
  lrg_.reset();
  for (InputId i = 0; i < radix_; ++i) {
    gb_vc_[i] = AuxVc(params_, gb_vtick(params_, alloc_, i));
  }
  gl_.reset();
  epoch_base_ = 0;
  rt_ = 0;
  last_now_ = 0;
  picked_class_ = TrafficClass::BestEffort;
  circuit::lane_masks_reset(lane_mask_, circuit::all_inputs_mask(radix_));
  dirty_ = 0;
}

}  // namespace ssq::core
