#include "core/output_arbiter.hpp"

#include <bit>
#include <utility>

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
                                   std::uint32_t gl_allowance_packets)
    : radix_(radix),
      params_(params),
      alloc_(std::move(alloc)),
      lrg_(radix),
      gl_(gl_vtick(params, alloc_), gl_allowance_packets, policing) {
  SSQ_EXPECT(radix >= 1 && radix <= 64);
  params_.validate();
  alloc_.validate(radix);
  gb_vc_.reserve(radix);
  for (InputId i = 0; i < radix; ++i) {
    gb_vc_.emplace_back(params_, gb_vtick(params_, alloc_, i));
    if (alloc_.gb_rate[i] > 0.0) gb_capable_ |= 1ULL << i;
  }
}

AuxVc& OutputQosArbiter::aux_vc_mut(InputId i) {
  SSQ_EXPECT(i < radix_);
  ++version_;
  live_ |= 1ULL << i;
  return gb_vc_[i];
}

void OutputQosArbiter::advance_to(Cycle now) {
  SSQ_EXPECT(now >= last_now_);
  last_now_ = now;
  SSQ_EXPECT(now >= epoch_base_);
  rt_ = now - epoch_base_;

  // The real-time clock counter is lsb_bits wide in every finite-counter
  // design; its wrap ("once that counter saturates") subtracts one MSB from
  // every auxVC and shifts the thermometer codes down. This runs for all
  // three management policies — it is how real time is kept. The k wraps
  // since the last advance apply in one closed-form step per counter. A
  // wrap leaves a clean zero as it is, so only the live counters are
  // visited, and the version moves only if one of them changed.
  if (params_.policy == CounterPolicy::None) return;
  const std::uint64_t k = rt_ >> params_.lsb_bits;
  if (k == 0) return;
  bool changed = false;
  for (std::uint64_t w = live_; w != 0; w &= w - 1) {
    const int i = std::countr_zero(w);
    AuxVc& vc = gb_vc_[static_cast<std::size_t>(i)];
    if (!vc.clean_zero()) {
      vc.epoch_wrap(k);
      changed = true;
    }
    if (vc.clean_zero()) live_ &= ~(1ULL << i);
  }
  if (changed) ++version_;
  epoch_base_ += k << params_.lsb_bits;
  rt_ -= k << params_.lsb_bits;
  if (probe_ != nullptr) probe_->epoch_wraps(now, self_, k);
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
      if (probe_ != nullptr) probe_->mgmt_event(now, self_, /*halve=*/true);
      break;
    case CounterPolicy::Reset:
      for (auto& vc : gb_vc_) vc.reset();
      if (probe_ != nullptr) probe_->mgmt_event(now, self_, /*halve=*/false);
      break;
    case CounterPolicy::SubtractRealClock:
    case CounterPolicy::None:
      break;  // no global event for these policies; registers clamp
  }
}

InputId OutputQosArbiter::pick(std::span<const ClassRequest> requests,
                               Cycle now) {
  ClassMasks m;
  for (const auto& r : requests) {
    SSQ_EXPECT(r.input < radix_);
    SSQ_EXPECT(((m.any() >> r.input) & 1ULL) == 0);
    m.add(r.input, r.cls);
  }
  return pick_masked(m, now);
}

InputId OutputQosArbiter::pick_masked(const ClassMasks& masks, Cycle now) {
  SSQ_EXPECT(now == last_now_ && "call advance_to(now) before pick_masked()");
  const std::uint64_t gl_mask = masks.gl;
  const std::uint64_t gb_mask = masks.gb;
  const std::uint64_t be_mask = masks.be;
  const std::uint64_t all = radix_ >= 64 ? ~0ULL : (1ULL << radix_) - 1;
  SSQ_EXPECT(((gl_mask | gb_mask | be_mask) & ~all) == 0);
  SSQ_EXPECT((gl_mask & gb_mask) == 0 && (gl_mask & be_mask) == 0 &&
             (gb_mask & be_mask) == 0 &&
             "an input requests in at most one class");
  SSQ_EXPECT((gb_mask & ~gb_capable_) == 0 &&
             "GB request from an input with no reservation");
  if ((gl_mask | gb_mask | be_mask) == 0) return kNoPort;

  // Stage 1 — GL override (Fig. 3): any *eligible* GL request discharges all
  // GB lanes; GL inputs LRG-arbitrate in the GL lane.
  const bool gl_ok = gl_.eligible(now);
  if (gl_ok) {
    if (gl_mask != 0) {
      const InputId w = lrg_.winner(gl_mask);
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

  // Stage 2 — GB: the requesters at the smallest sensed level win; LRG
  // breaks the tie inside that lane. The level is the *sensed* one — the
  // stored thermometer vector (which a fault may have corrupted) through the
  // quarantine remap — because that is what the bitlines discharge on.
  if (gb_mask != 0) {
    std::uint64_t cand = 0;
    std::uint32_t min_level = params_.gb_levels();
    for (std::uint64_t m = gb_mask; m != 0; m &= m - 1) {
      const auto i = static_cast<InputId>(std::countr_zero(m));
      const std::uint32_t level = sensed_gb_level(i);
      if (level < min_level) {
        min_level = level;
        cand = 0;
      }
      if (level == min_level) cand |= 1ULL << i;
    }
    const InputId w = lrg_.winner(cand);
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
    const InputId w = lrg_.winner(stage3);
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
      live_ |= 1ULL << input;
      const bool saturated = gb_vc_[input].on_grant(rt_);
      if (saturated && probe_ != nullptr) {
        probe_->auxvc_saturated(now, self_, input, gb_vc_[input].cap());
      }
      if (saturated && (params_.policy == CounterPolicy::Halve ||
                        params_.policy == CounterPolicy::Reset)) {
        on_saturation(now);
      }
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
  return repairs;
}

}  // namespace ssq::core
