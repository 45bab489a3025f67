#include "check/reference.hpp"

#include <algorithm>

#include "sim/contracts.hpp"

namespace ssq::check {

const char* to_string(PlantedBug b) noexcept {
  switch (b) {
    case PlantedBug::None: return "none";
    case PlantedBug::GbVtickOffByOne: return "gb_vtick_off_by_one";
    case PlantedBug::LrgNoMoveToBack: return "lrg_no_move_to_back";
    case PlantedBug::GlAllowanceOffByOne: return "gl_allowance_off_by_one";
    case PlantedBug::SkipEpochWrap: return "skip_epoch_wrap";
    case PlantedBug::EngineStarve: return "engine_starve";
  }
  return "?";
}

ReferenceOutput::ReferenceOutput(std::uint32_t radix,
                                 const core::SsvcParams& params,
                                 const core::OutputAllocation& alloc,
                                 core::GlPolicing policing,
                                 std::uint32_t gl_allowance, PlantedBug bug)
    : radix_(radix),
      params_(params),
      policing_(policing),
      gl_allowance_(gl_allowance),
      bug_(bug),
      cap_(params.policy == core::CounterPolicy::None ? (1ULL << 62)
                                                      : params.aux_vc_cap()) {
  SSQ_EXPECT(radix >= 1 && radix <= 64);
  params_.validate();
  vtick_.resize(radix, 1);
  reserved_.resize(radix, false);
  value_.resize(radix, 0);
  for (InputId i = 0; i < radix; ++i) {
    const double rate = alloc.gb_rate[i];
    if (rate > 0.0) {
      reserved_[i] = true;
      vtick_[i] = core::quantize_vtick(
          params_, core::ideal_vtick(rate, alloc.gb_packet_len));
    }
  }
  if (alloc.gl_rate > 0.0) {
    gl_vtick_ = core::quantize_vtick(
        params_, core::ideal_vtick(alloc.gl_rate, alloc.gl_packet_len));
  }
  order_.resize(radix);
  pos_.resize(radix);
  for (InputId i = 0; i < radix; ++i) {
    order_[i] = i;
    pos_[i] = i;
  }
}

void ReferenceOutput::advance_to(Cycle now) {
  SSQ_EXPECT(now >= epoch_base_);
  rt_ = now - epoch_base_;
  if (params_.policy == core::CounterPolicy::None) return;
  const std::uint64_t epoch = params_.epoch_cycles();
  while (rt_ >= epoch) {
    ++version_;
    if (bug_ != PlantedBug::SkipEpochWrap) {
      for (auto& v : value_) v = v >= epoch ? v - epoch : 0;
    }
    epoch_base_ += epoch;
    rt_ -= epoch;
  }
}

InputId ReferenceOutput::first_in_order(std::uint64_t bucket) const {
  for (const InputId i : order_) {
    if ((bucket >> i) & 1ULL) return i;
  }
  return kNoPort;
}

bool ReferenceOutput::gl_eligible(Cycle now) const {
  if (gl_vtick_ == 0 || policing_ == core::GlPolicing::None) return true;
  std::uint64_t allowance = gl_allowance_;
  if (bug_ == PlantedBug::GlAllowanceOffByOne) ++allowance;
  return gl_clock_ <= now + gl_vtick_ * allowance;
}

ReferenceOutput::Decision ReferenceOutput::pick(
    std::span<const core::ClassRequest> requests, Cycle now) const {
  SSQ_EXPECT(now >= epoch_base_ && now - epoch_base_ == rt_ &&
             "call advance_to(now) before pick()");
  if (requests.empty()) return {};

  // Stage 1 — eligible GL requests take absolute priority, LRG among them.
  const bool gl_ok = gl_eligible(now);
  std::uint64_t gl_bucket = 0;
  for (const auto& r : requests) {
    SSQ_EXPECT(r.input < radix_);
    if (r.cls == TrafficClass::GuaranteedLatency && gl_ok) {
      gl_bucket |= 1ULL << r.input;
    }
  }
  if (gl_bucket != 0) {
    return {first_in_order(gl_bucket), TrafficClass::GuaranteedLatency};
  }

  // Stage 2 — GB requests: smallest virtual-clock lane wins, LRG in-lane.
  std::uint32_t min_level = params_.gb_levels();
  for (const auto& r : requests) {
    if (r.cls != TrafficClass::GuaranteedBandwidth) continue;
    SSQ_EXPECT(reserved_[r.input]);
    min_level = std::min(min_level, level_of(value_[r.input]));
  }
  std::uint64_t gb_bucket = 0;
  for (const auto& r : requests) {
    if (r.cls == TrafficClass::GuaranteedBandwidth &&
        level_of(value_[r.input]) == min_level) {
      gb_bucket |= 1ULL << r.input;
    }
  }
  if (gb_bucket != 0) {
    return {first_in_order(gb_bucket), TrafficClass::GuaranteedBandwidth};
  }

  // Stage 3 — BE, joined by policer-demoted GL; winner keeps its own class.
  std::uint64_t be_bucket = 0;
  std::uint64_t demoted = 0;
  for (const auto& r : requests) {
    if (r.cls == TrafficClass::BestEffort) be_bucket |= 1ULL << r.input;
    if (r.cls == TrafficClass::GuaranteedLatency && !gl_ok &&
        policing_ == core::GlPolicing::Demote) {
      be_bucket |= 1ULL << r.input;
      demoted |= 1ULL << r.input;
    }
  }
  if (be_bucket != 0) {
    const InputId w = first_in_order(be_bucket);
    return {w, ((demoted >> w) & 1ULL) != 0
                   ? TrafficClass::GuaranteedLatency
                   : TrafficClass::BestEffort};
  }

  // Only policer-stalled GL requests present.
  return {};
}

void ReferenceOutput::on_grant(InputId input, TrafficClass cls, Cycle now) {
  SSQ_EXPECT(input < radix_);
  SSQ_EXPECT(now >= epoch_base_ && now - epoch_base_ == rt_ &&
             "call advance_to(now) before on_grant()");

  ++version_;
  if (bug_ != PlantedBug::LrgNoMoveToBack) {
    // Move to back, shifting the tail down and keeping pos_ (the inverse
    // permutation lrg_rank reads) in step — one pass, no linear search.
    const std::uint32_t p = pos_[input];
    SSQ_ENSURE(order_[p] == input);
    for (std::uint32_t k = p; k + 1 < radix_; ++k) {
      order_[k] = order_[k + 1];
      pos_[order_[k]] = k;
    }
    order_[radix_ - 1] = input;
    pos_[input] = radix_ - 1;
  }

  switch (cls) {
    case TrafficClass::GuaranteedBandwidth: {
      std::uint64_t tick = vtick_[input];
      if (bug_ == PlantedBug::GbVtickOffByOne) ++tick;
      std::uint64_t v = std::max(value_[input], rt_);
      bool saturated = false;
      if (cap_ >= tick && v > cap_ - tick) {
        v = cap_;
        saturated = true;
      } else {
        v += tick;
        if (v >= cap_) {
          v = cap_;
          saturated = true;
        }
      }
      value_[input] = v;
      if (params_.policy != core::CounterPolicy::None &&
          level_of(v) == params_.gb_levels() - 1) {
        saturated = true;
      }
      if (saturated) {
        if (params_.policy == core::CounterPolicy::Halve) {
          for (auto& x : value_) x >>= 1;
        } else if (params_.policy == core::CounterPolicy::Reset) {
          for (auto& x : value_) x = 0;
        }
      }
      break;
    }
    case TrafficClass::GuaranteedLatency:
      if (gl_vtick_ != 0) {
        gl_clock_ = std::max(gl_clock_, static_cast<std::uint64_t>(now)) +
                    gl_vtick_;
      }
      break;
    case TrafficClass::BestEffort:
      break;
  }
}

void ReferenceOutput::lrg_rows(std::vector<std::uint64_t>& rows) const {
  // order_[k] beats everything at positions > k; every row is written.
  rows.resize(radix_);
  std::uint64_t remaining = 0;
  for (InputId i = 0; i < radix_; ++i) remaining |= 1ULL << i;
  for (const InputId who : order_) {
    remaining &= ~(1ULL << who);
    rows[who] = remaining;
  }
}

}  // namespace ssq::check
