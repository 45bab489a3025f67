#include "fault/injector.hpp"

#include "core/output_arbiter.hpp"
#include "obs/probe.hpp"
#include "sim/contracts.hpp"
#include "sim/error.hpp"

namespace ssq::fault {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      bitflip_(plan_.bitflip_rate) {}

void FaultInjector::bind(std::vector<core::OutputQosArbiter*> arbiters,
                         std::uint32_t radix) {
  SSQ_EXPECT(radix >= 1 && radix <= 64);
  arbs_ = std::move(arbiters);
  radix_ = radix;
  dead_links_.assign(radix, 0);
  // Plan coordinates come from CLI flags, so bad ones are config errors.
  for (const auto& s : plan_.stuck_lanes) {
    ssq::detail::config_check(
        s.output < radix, "fault plan: stuck-lane output out of range");
    if (!arbs_.empty()) {
      ssq::detail::config_check(
          s.lane < arbs_[s.output]->params().gb_levels(),
          "fault plan: stuck-lane index >= 2^level_bits GB lanes");
    }
  }
  for (const auto& k : plan_.port_kills) {
    ssq::detail::config_check(k.input < radix,
                              "fault plan: kill-port input out of range");
  }
  for (const auto& k : plan_.crosspoint_kills) {
    ssq::detail::config_check(
        k.input < radix && k.output < radix,
        "fault plan: crosspoint-kill coordinates out of range");
  }
}

void FaultInjector::record(const InjectedFault& f) {
  log_.push_back(f);
  if (probe_ != nullptr) {
    probe_->fault_injected(f.cycle, f.output, f.input, f.target, f.bit);
  }
}

void FaultInjector::update_outages(Cycle now) {
  outage_edges_ = 0;
  for (const auto& k : plan_.port_kills) {
    if (k.at == now || k.restore_at == now) outage_edges_ |= 1ULL << k.input;
    if (k.at == now) {
      dead_ports_ |= 1ULL << k.input;
      record({now, obs::kTargetPortKill, kNoPort, k.input, 1});
      if (probe_ != nullptr) probe_->port_outage(now, k.input, /*down=*/true);
    }
    if (k.restore_at == now) {
      dead_ports_ &= ~(1ULL << k.input);
      if (probe_ != nullptr) probe_->port_outage(now, k.input, /*down=*/false);
    }
  }
  for (const auto& k : plan_.crosspoint_kills) {
    if (k.at == now || k.restore_at == now) outage_edges_ |= 1ULL << k.input;
    if (k.at == now) {
      dead_links_[k.input] |= 1ULL << k.output;
      record({now, obs::kTargetPortKill, k.output, k.input, 1});
    }
    if (k.restore_at == now) dead_links_[k.input] &= ~(1ULL << k.output);
  }
}

void FaultInjector::apply_stuck_lanes(Cycle now) {
  // A stuck wire corrupts continuously: every cycle, any crosspoint whose
  // stored thermometer cell disagrees with the stuck value gets that cell
  // forced — so the scrubber keeps seeing fresh corruption at the same lane
  // until it quarantines it.
  for (const auto& s : plan_.stuck_lanes) {
    if (now < s.at || arbs_.empty()) continue;
    auto& arb = *arbs_[s.output];
    for (InputId i = 0; i < radix_; ++i) {
      const auto& code = arb.aux_vc(i).code();
      const bool reads_high = ((code.raw_bits() >> s.lane) & 1ULL) != 0;
      if (reads_high != s.stuck_high) {
        arb.aux_vc_mut(i).fault_flip_code(s.lane);
        if (now == s.at) {
          record({now, obs::kTargetStuckLane, s.output, i, s.lane});
        }
      }
    }
  }
}

void FaultInjector::inject_bitflip(Cycle now) {
  // A cycle that scan_fire() rolled replays its outcome.
  if (arbs_.empty() || !stream_.step(now, [&] { return bitflip_(rng_); })) {
    return;
  }
  // Draw the victim. The draw order is fixed so equal plans replay equal
  // schedules regardless of what the faults do to the switch.
  const auto target = static_cast<std::uint32_t>(rng_.below(4));
  const auto output = static_cast<OutputId>(rng_.below(arbs_.size()));
  const auto input = static_cast<InputId>(rng_.below(radix_));
  const std::uint64_t raw_bit = rng_.below(64);
  auto& arb = *arbs_[output];
  InjectedFault f{now, target, output, input, 0};
  switch (target) {
    case obs::kTargetAuxValue: {
      auto& vc = arb.aux_vc_mut(input);
      f.bit = static_cast<std::uint32_t>(raw_bit % vc.register_bits());
      vc.fault_flip_value(f.bit);
      break;
    }
    case obs::kTargetAuxCode: {
      f.bit = static_cast<std::uint32_t>(raw_bit % arb.params().gb_levels());
      arb.aux_vc_mut(input).fault_flip_code(f.bit);
      break;
    }
    case obs::kTargetLrgRow: {
      // Off-diagonal column: a crosspoint stores only rows against others.
      f.bit = static_cast<std::uint32_t>(raw_bit % radix_);
      if (radix_ > 1 && f.bit == input) f.bit = (f.bit + 1) % radix_;
      arb.lrg().fault_flip(input, f.bit);
      break;
    }
    case obs::kTargetGlClock: {
      f.input = kNoPort;  // the GL clock is shared per output
      f.bit = static_cast<std::uint32_t>(raw_bit % 48);
      arb.gl_tracker_mut().fault_flip(f.bit);
      break;
    }
    default:
      SSQ_EXPECT(false);
  }
  record(f);
}

void FaultInjector::on_cycle(Cycle now) {
  update_outages(now);
  apply_stuck_lanes(now);
  inject_bitflip(now);
}

Cycle FaultInjector::next_event(Cycle now) const noexcept {
  // Static plan schedule only: outage edges and stuck-lane starts are the
  // cycles where update_outages/apply_stuck_lanes do something new. Ongoing
  // stuck-lane reassertion is idempotent and therefore horizon-free (see the
  // header); bitflips are covered separately by scan_fire().
  Cycle next = kNoCycle;
  const auto consider = [&](Cycle at) {
    if (at != kNoCycle && at >= now && at < next) next = at;
  };
  for (const auto& k : plan_.port_kills) {
    consider(k.at);
    consider(k.restore_at);
  }
  for (const auto& k : plan_.crosspoint_kills) {
    consider(k.at);
    consider(k.restore_at);
  }
  for (const auto& s : plan_.stuck_lanes) consider(s.at);
  return next;
}

Cycle FaultInjector::scan_fire(Cycle now, Cycle limit) {
  // Roll forward from wherever the stream last stopped; cycles before `now`
  // were already consumed by stepping. One trial per cycle, in cycle order —
  // exactly the draws a stepped run would make, so a jumped run and a
  // stepped run consume the same stream.
  const Cycle fire = stream_.roll(now, limit, [&](Cycle from, Cycle to) {
    return bitflip_.first_success(rng_, from, to);
  });
  return fire >= now && fire < limit ? fire : kNoCycle;
}

}  // namespace ssq::fault
