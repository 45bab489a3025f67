// Chaos resilience — QoS retention under injected faults, scrub-on versus
// scrub-off (robustness experiment; methodological, not a paper table).
//
// The Fig. 4 switch (8 GB flows with reserved shares onto one output, plus
// a small GL heartbeat under a GL reservation) runs under a sweep of
// single-event-upset rates and under a hard stuck-at bitline lane. For each
// fault level the bench reports, with state scrubbing off and on:
//
//   * min GB share ratio: worst-case accepted/entitled over the GB flows
//     (entitled = reserved fraction of the deliverable 8/9 ceiling) — the
//     bandwidth-guarantee retention headline,
//   * GL p95/max latency — the latency-guarantee retention headline,
//   * faults injected, scrub repairs, quarantined lanes,
//   * detection latency: cycles from each injected upset to the next scrub
//     repair on the same output (mean/max over attributed faults). With a
//     pass every `kScrubInterval` cycles the max stays within one interval.
//
// `--quick` shrinks the sweep and the windows (CI smoke); `--csv` and
// `--json[=PATH]` behave as in every bench (see bench/common.hpp).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scrubber.hpp"
#include "obs/event.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "stats/table.hpp"
#include "switch/simulator.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace ssq;

// 0.35+0.20+0.10+0.10+4*0.05 = 0.95 GB, plus the 0.05 GL reservation.
const std::vector<double> kRates = {0.35, 0.20, 0.10, 0.10,
                                    0.05, 0.05, 0.05, 0.05};
constexpr std::uint32_t kPacketLen = 8;
constexpr Cycle kScrubInterval = 256;
constexpr double kDeliverable = 8.0 / 9.0;  // Fig. 4 arbitration ceiling

traffic::Workload workload() {
  traffic::Workload w(8);
  for (InputId i = 0; i < 8; ++i) {
    w.add_flow(bench::make_gb_flow(i, 0, kRates[i], kPacketLen, 0.9));
  }
  w.add_flow(bench::make_gl_flow(7, 0, 1, 0.005));
  w.set_gl_reservation(0, 0.05, 1);
  return w;
}

struct RunResult {
  double min_gb_ratio = 0.0;
  double gl_p95 = 0.0;
  double gl_max = 0.0;
  std::uint64_t faults = 0;
  std::uint64_t repairs = 0;
  std::uint32_t quarantined = 0;
  double mean_detect = 0.0;
  Cycle max_detect = 0;
};

/// Cycles from injection to detection, measured per scrub repair: the
/// corruption a pass repairs must have been injected after the previous
/// pass (an earlier upset would have been repaired — or laundered by a
/// legitimate write — by then), so each repair is attributed to the most
/// recent preceding fault on the same output. Outages are excluded
/// (nothing to scrub). The max stays within one scrub interval.
void detection_latency(const std::vector<obs::Event>& events, RunResult& r) {
  double sum = 0.0;
  std::uint64_t matched = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& rep = events[i];
    if (rep.kind != obs::EventKind::ScrubRepair) continue;
    for (std::size_t j = i; j-- > 0;) {
      const auto& f = events[j];
      if (f.kind != obs::EventKind::FaultInjected || f.output != rep.output ||
          f.arg0 == obs::kTargetPortKill) {
        continue;
      }
      const Cycle gap = rep.cycle - f.cycle;
      sum += static_cast<double>(gap);
      r.max_detect = std::max(r.max_detect, gap);
      ++matched;
      break;
    }
  }
  if (matched > 0) r.mean_detect = sum / static_cast<double>(matched);
}

RunResult run_one(const fault::FaultPlan& plan, bool scrub, Cycle warmup,
                  Cycle measure, bool attribute_detect = true) {
  auto config = bench::paper_switch_config();
  sw::CrossbarSwitch sim(config, workload());

  fault::FaultInjector injector(plan);
  fault::StateScrubber scrubber(kScrubInterval);
  obs::SwitchProbe probe(config.radix);
  obs::CollectSink sink;
  obs::Tracer tracer(sink);

  const bool faulted = !plan.empty();
  if (faulted) sim.attach_fault_injector(&injector);
  if (scrub) {
    sim.attach_scrubber(&scrubber);
    probe.set_tracer(&tracer);
    sim.attach_probe(&probe);
  }

  sim.warmup(warmup);
  sim.measure(measure);
  const auto res = sw::summarize(sim);

  RunResult r;
  r.min_gb_ratio = 1e9;
  for (const auto& f : res.flows) {
    if (f.cls == TrafficClass::GuaranteedBandwidth) {
      const double entitled = f.reserved_rate * kDeliverable;
      r.min_gb_ratio = std::min(r.min_gb_ratio, f.accepted_rate / entitled);
    } else if (f.cls == TrafficClass::GuaranteedLatency) {
      r.gl_p95 = f.p95_latency;
      r.gl_max = f.max_latency;
    }
  }
  r.faults = injector.log().size();
  r.repairs = scrubber.repairs();
  r.quarantined = static_cast<std::uint32_t>(
      std::popcount(sim.qos_arbiter(0).quarantined_lanes()));
  if (scrub && attribute_detect) detection_latency(sink.events(), r);
  return r;
}

void add_row(stats::Table& t, const std::string& fault,
             const std::string& scrub, const RunResult& r) {
  t.row()
      .cell(fault)
      .cell(scrub)
      .cell(r.faults)
      .cell(r.repairs)
      .cell(static_cast<std::uint64_t>(r.quarantined))
      .cell(r.min_gb_ratio, 3)
      .cell(r.gl_p95, 1)
      .cell(r.gl_max, 0)
      .cell(r.mean_detect, 1)
      .cell(static_cast<std::uint64_t>(r.max_detect));
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport report("chaos_resilience", argc, argv, {"--quick"});
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") quick = true;
  }
  const Cycle warmup = quick ? 1000 : 3000;
  const Cycle measure = quick ? 10000 : 50000;

  std::vector<double> rates = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
  if (quick) rates = {0.0, 1e-3, 1e-2};

  stats::Table t(
      "QoS retention vs single-event-upset rate (scrub interval " +
      std::to_string(kScrubInterval) +
      " cycles; ratio = accepted/entitled, min over GB flows; detect in "
      "cycles)");
  t.header({"bitflip_rate", "scrub", "faults", "repairs", "quarantined",
            "min_gb_ratio", "gl_p95", "gl_max", "mean_detect", "max_detect"});
  RunResult worst_off, worst_on;
  for (const double rate : rates) {
    fault::FaultPlan plan;
    plan.seed = 0xc7a05;
    plan.bitflip_rate = rate;
    const RunResult off = run_one(plan, /*scrub=*/false, warmup, measure);
    const RunResult on = run_one(plan, /*scrub=*/true, warmup, measure);
    add_row(t, std::to_string(rate), "off", off);
    add_row(t, std::to_string(rate), "on", on);
    if (rate == rates.back()) {
      worst_off = off;
      worst_on = on;
    }
  }
  report.table(t);

  stats::Table s(
      "QoS retention with one GB bitline lane stuck at 1 (hard fault; "
      "scrub-on quarantines the lane; detect columns are per-upset and do "
      "not apply to continuous forcing)");
  s.header({"fault", "scrub", "faults", "repairs", "quarantined",
            "min_gb_ratio", "gl_p95", "gl_max", "mean_detect", "max_detect"});
  {
    fault::FaultPlan plan;
    plan.seed = 0xc7a05;
    plan.stuck_lanes.push_back(
        {.output = 0, .lane = 5, .stuck_high = true, .at = 0});
    add_row(s, "stuck_lane", "off",
            run_one(plan, /*scrub=*/false, warmup, measure,
                    /*attribute_detect=*/false));
    add_row(s, "stuck_lane", "on",
            run_one(plan, /*scrub=*/true, warmup, measure,
                    /*attribute_detect=*/false));
  }
  report.table(s);

  report.metric("min_gb_ratio_scrub_off", worst_off.min_gb_ratio);
  report.metric("min_gb_ratio_scrub_on", worst_on.min_gb_ratio);
  report.metric("max_detect_cycles", static_cast<double>(worst_on.max_detect));
  report.metric("scrub_interval", static_cast<double>(kScrubInterval));

  if (!report.csv()) {
    std::cout << "\nheadline: at bitflip rate " << rates.back()
              << ", min GB share ratio " << worst_off.min_gb_ratio
              << " (scrub off) vs " << worst_on.min_gb_ratio
              << " (scrub on); worst detection latency "
              << worst_on.max_detect << " cycles against a scrub interval of "
              << kScrubInterval << "\n";
  }
  return 0;
}
