#include "traffic/injector.hpp"

#include <cmath>

#include "sim/contracts.hpp"

namespace ssq::traffic {

Injector::Injector(const FlowSpec& spec, Rng rng)
    : spec_(spec), rng_(rng) {
  const double mean_len = static_cast<double>(spec_.mean_len());
  switch (spec_.inject) {
    case InjectKind::Bernoulli: {
      p_inject_ = spec_.inject_rate / mean_len;
      SSQ_EXPECT(p_inject_ <= 1.0 + 1e-12);
      break;
    }
    case InjectKind::OnOff: {
      // Average rate = peak_rate * duty; duty = on / (on + off).
      const double duty =
          spec_.mean_on_cycles / (spec_.mean_on_cycles + spec_.mean_off_cycles);
      const double peak = spec_.inject_rate / duty;
      p_inject_ = peak / mean_len;
      if (p_inject_ > 1.0) p_inject_ = 1.0;  // saturated bursts
      p_leave_on_ = 1.0 / spec_.mean_on_cycles;
      p_leave_off_ =
          spec_.mean_off_cycles > 0.0 ? 1.0 / spec_.mean_off_cycles : 1.0;
      on_ = false;
      break;
    }
    case InjectKind::Periodic: {
      const double ideal = mean_len / spec_.inject_rate;
      period_ = static_cast<Cycle>(std::llround(ideal));
      if (period_ < 1) period_ = 1;
      next_fire_ = spec_.start_cycle;
      break;
    }
    case InjectKind::BurstOnce:
    case InjectKind::Trace:
      break;
  }
}

Cycle Injector::next_active_cycle(Cycle now) const {
  switch (spec_.inject) {
    case InjectKind::Bernoulli:
    case InjectKind::OnOff:
      // Consumes RNG every cycle from start_cycle on; only the pre-start
      // stretch is skippable (packets_at returns 0 there without drawing).
      return now < spec_.start_cycle ? spec_.start_cycle : now;
    case InjectKind::Periodic:
      return next_fire_ > now ? next_fire_ : now;
    case InjectKind::BurstOnce:
      if (burst_done_) return kNoCycle;
      return spec_.burst_start > now ? spec_.burst_start : now;
    case InjectKind::Trace:
      if (trace_pos_ >= spec_.trace.size()) return kNoCycle;
      return spec_.trace[trace_pos_] > now ? spec_.trace[trace_pos_] : now;
  }
  return now;
}

}  // namespace ssq::traffic
