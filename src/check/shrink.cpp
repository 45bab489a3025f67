#include "check/shrink.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace ssq::check {

namespace {

struct Shrinker {
  const CheckOptions& opts;
  std::uint32_t budget;
  Scenario best;
  RunResult best_failure;
  std::uint32_t attempts = 0;
  std::uint32_t accepted = 0;

  /// Runs `candidate`; adopts it as the new best iff it still fails.
  bool try_adopt(Scenario candidate) {
    if (attempts >= budget) return false;
    ++attempts;
    RunResult r = run_scenario(candidate, opts);
    if (!r.failed) return false;
    ++accepted;
    best = std::move(candidate);
    best_failure = std::move(r);
    return true;
  }

  /// Cut the run just past the recorded failure cycle — the single biggest
  /// reduction, and it re-tightens after every structural simplification.
  void tighten_cycles() {
    const Cycle want = best_failure.fail_cycle + 1;
    if (want < best.cycles) {
      Scenario c = best;
      c.cycles = want;
      try_adopt(std::move(c));
    }
  }

  /// Try removing element `i` of a vector member; true if adopted.
  template <typename T>
  bool drop_one(std::vector<T> Scenario::* member, std::size_t i) {
    Scenario c = best;
    auto& vec = c.*member;
    vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i));
    return try_adopt(std::move(c));
  }

  template <typename T>
  bool drop_each(std::vector<T> Scenario::* member) {
    bool any = false;
    // Back-to-front so surviving indices stay valid after a removal.
    for (std::size_t i = (best.*member).size(); i-- > 0;) {
      if (attempts >= budget) return any;
      if (drop_one(member, i)) {
        any = true;
        tighten_cycles();
      }
    }
    return any;
  }

  template <typename T>
  bool drop_fault_each(std::vector<T> fault::FaultPlan::* member) {
    bool any = false;
    for (std::size_t i = (best.faults.*member).size(); i-- > 0;) {
      if (attempts >= budget) return any;
      Scenario c = best;
      auto& vec = c.faults.*member;
      vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_adopt(std::move(c))) {
        any = true;
        tighten_cycles();
      }
    }
    return any;
  }

  bool simplify_flows() {
    bool any = false;
    for (std::size_t i = 0; i < best.flows.size(); ++i) {
      if (attempts >= budget) return any;
      const auto& fl = best.flows[i];
      if (fl.len_max > fl.len_min) {
        Scenario c = best;
        c.flows[i].len_max = c.flows[i].len_min;
        any |= try_adopt(std::move(c));
      }
      if (best.flows[i].len_min > 1) {
        Scenario c = best;
        c.flows[i].len_min = 1;
        c.flows[i].len_max = 1;
        any |= try_adopt(std::move(c));
      }
      if (best.flows[i].start_cycle != 0) {
        Scenario c = best;
        c.flows[i].start_cycle = 0;
        any |= try_adopt(std::move(c));
      }
      // Collapse the injection process to a small burst at cycle 0: the
      // simplest possible source, and it drags the first grant — hence the
      // divergence — to the front of the run so tighten_cycles() can bite.
      const auto& cur = best.flows[i];
      if (cur.inject != traffic::InjectKind::BurstOnce ||
          cur.burst_start != 0 || cur.burst_packets > 4) {
        Scenario c = best;
        auto& g = c.flows[i];
        g.inject = traffic::InjectKind::BurstOnce;
        g.inject_rate = 0.0;
        g.burst_start = 0;
        g.burst_packets = 4;
        if (try_adopt(std::move(c))) {
          any = true;
          tighten_cycles();
        }
      }
    }
    return any;
  }

  bool strip_options() {
    bool any = false;
    auto try_flag = [&](auto mutate) {
      if (attempts >= budget) return;
      Scenario c = best;
      mutate(c);
      any |= try_adopt(std::move(c));
    };
    if (best.gsf.enabled) try_flag([](Scenario& c) { c.gsf.enabled = false; });
    if (best.matching_engine != arb::MatchKind::None) {
      // Engine-independent failures (conservation, double grants) shrink to
      // the single-request path; engine-specific ones keep the engine but try the
      // smallest iteration budget.
      try_flag([](Scenario& c) { c.matching_engine = arb::MatchKind::None; });
      if (best.match_iterations > 1) {
        try_flag([](Scenario& c) { c.match_iterations = 1; });
      }
    }
    if (best.packet_chaining) {
      try_flag([](Scenario& c) { c.packet_chaining = false; });
    }
    if (best.arbitration_cycles > 1) {
      try_flag([](Scenario& c) { c.arbitration_cycles = 1; });
    }
    if (best.scrub_interval != 0) {
      try_flag([](Scenario& c) { c.scrub_interval = 0; });
    }
    if (best.faults.bitflip_rate > 0.0) {
      try_flag([](Scenario& c) { c.faults.bitflip_rate = 0.0; });
    }
    return any;
  }

  void run() {
    tighten_cycles();
    bool progressed = true;
    while (progressed && attempts < budget) {
      progressed = false;
      progressed |= drop_each(&Scenario::flows);
      progressed |= drop_fault_each(&fault::FaultPlan::stuck_lanes);
      progressed |= drop_fault_each(&fault::FaultPlan::port_kills);
      progressed |= drop_fault_each(&fault::FaultPlan::crosspoint_kills);
      progressed |= strip_options();
      progressed |= drop_each(&Scenario::gl_reservations);
      progressed |= simplify_flows();
      tighten_cycles();
    }
  }
};

}  // namespace

ShrinkResult shrink(const Scenario& failing, const CheckOptions& opts,
                    std::uint32_t max_attempts) {
  RunResult first = run_scenario(failing, opts);
  SSQ_EXPECT(first.failed && "shrink() needs a scenario that actually fails");
  Shrinker sh{opts, max_attempts, failing, std::move(first)};
  sh.run();
  ShrinkResult out;
  out.scenario = std::move(sh.best);
  out.scenario.name = failing.name + "-min";
  out.failure = std::move(sh.best_failure);
  out.attempts = sh.attempts;
  out.accepted = sh.accepted;
  return out;
}

}  // namespace ssq::check
