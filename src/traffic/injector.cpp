#include "traffic/injector.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace ssq::traffic {

Injector::Injector(const FlowSpec& spec, Rng rng)
    : spec_(spec), rng_(rng) {
  const double mean_len = static_cast<double>(spec_.mean_len());
  switch (spec_.inject) {
    case InjectKind::Bernoulli: {
      const double p = spec_.inject_rate / mean_len;
      SSQ_EXPECT(p <= 1.0 + 1e-12);
      inject_ = BernoulliTrial(p);
      break;
    }
    case InjectKind::OnOff: {
      // Average rate = peak_rate * duty; duty = on / (on + off). A peak
      // above one packet per cycle saturates the bursts.
      const double duty =
          spec_.mean_on_cycles / (spec_.mean_on_cycles + spec_.mean_off_cycles);
      const double peak = spec_.inject_rate / duty;
      inject_ = BernoulliTrial(peak / mean_len);
      leave_on_ = BernoulliTrial(1.0 / spec_.mean_on_cycles);
      leave_off_ = BernoulliTrial(
          spec_.mean_off_cycles > 0.0 ? 1.0 / spec_.mean_off_cycles : 1.0);
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
      break;
  }
}

Cycle Injector::next_event(Cycle now, Cycle limit) {
  switch (spec_.inject) {
    case InjectKind::Bernoulli:
    case InjectKind::OnOff: {
      // The kind is chosen once per roll, outside the loop.
      const auto scan = [&](Cycle from, Cycle to) {
        return spec_.inject == InjectKind::Bernoulli
                   ? inject_.first_success(rng_, from, to)
                   : first_success(from, to, [&] { return roll_on_off(); });
      };
      // Nothing is drawn before start_cycle. With no creating cycle before
      // `limit`, the first unrolled cycle is the re-check point.
      const Cycle fire =
          stream_.roll(std::max(now, spec_.start_cycle), limit, scan);
      return fire != kNoCycle ? fire : stream_.rolled();
    }
    case InjectKind::Periodic:
      return next_fire_ > now ? next_fire_ : now;
    case InjectKind::BurstOnce:
      if (burst_done_) return kNoCycle;
      return spec_.burst_start > now ? spec_.burst_start : now;
  }
  return now;
}

}  // namespace ssq::traffic
