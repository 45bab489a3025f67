// §1 / §4.4 — the headline claim, exercised directly: "an efficient QoS
// implementation for a single-stage, high-radix switch, which is readily
// scalable to 64 nodes."
//
// A full radix-64 switch (512-bit bus: 8 lanes, of which 4 carry GB levels
// plus the GL and BE lanes — §4.4's comfortable radix-64 configuration):
//   * a hot-spot output taking GB reservations from 32 inputs plus a shared
//     GL reservation serving interrupt traffic from 4 more inputs,
//   * background all-to-all best-effort traffic from every node.
// Reported: adherence of a sample of reservations, GL worst-case wait vs
// the Eq. (1) bound, aggregate utilisation, and wall-clock simulation speed.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "qosmath/gl_bound.hpp"
#include "stats/table.hpp"
#include "switch/crossbar.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace ssq;

constexpr std::uint32_t kRadix = 64;
constexpr OutputId kHotspot = 0;
constexpr std::uint32_t kGlSenders = 4;

constexpr std::uint32_t gb_senders(std::uint32_t radix) { return radix / 2; }

// Reservations at the hotspot: 4 big flows at 8 %, the rest splitting 56 %
// (at radix 64: 28 small flows at exactly 2 %), total 88 %.
double gb_rate(std::uint32_t radix, InputId i) {
  return i < 4 ? 0.08 : 0.56 / static_cast<double>(gb_senders(radix) - 4);
}

traffic::Workload build_workload(std::uint32_t radix) {
  const std::uint32_t gb = gb_senders(radix);
  traffic::Workload w(radix);
  for (InputId i = 0; i < gb; ++i) {
    w.add_flow(bench::make_gb_flow(i, kHotspot, gb_rate(radix, i), 8, 0.5));
  }
  // 4 GL senders (interrupts) sharing a 6 % reservation.
  for (InputId i = gb; i < gb + kGlSenders; ++i) {
    w.add_flow(bench::make_gl_flow(i, kHotspot, 2, 0.004));
  }
  w.set_gl_reservation(kHotspot, 0.06, 2);
  // Background BE from the remaining inputs to spread outputs.
  for (InputId i = gb + kGlSenders; i < radix; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.3;
    w.add_flow(f);
  }
  return w;
}

// Everything the tables need, extracted inside the point function so the
// per-radix simulations are independent and can run on the pool.
struct ScalePoint {
  std::uint32_t radix = 0;
  double wall_s = 0.0;
  double gb_total = 0.0;  // aggregate accepted rate of the GB reservations
  std::vector<double> sampled_rates;  // flows {0, 3, 4, gb*5/8, gb-1}
  double gl_max_wait = 0.0;
  std::uint64_t gl_packets = 0;
};

ScalePoint run_scale(std::uint32_t radix) {
  auto config = bench::paper_switch_config();
  config.radix = radix;
  config.ssvc.level_bits = 2;  // 4 GB lanes: the 512-bit-bus radix-64 config
  config.ssvc.lsb_bits = 8;
  config.buffers.gl_flits = 4;

  sw::CrossbarSwitch sim(config, build_workload(radix));
  const auto t0 = std::chrono::steady_clock::now();
  sim.warmup(10000);
  sim.measure(200000);
  const auto t1 = std::chrono::steady_clock::now();

  const std::uint32_t gb = gb_senders(radix);
  ScalePoint r;
  r.radix = radix;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (FlowId f = 0; f < gb; ++f) r.gb_total += sim.throughput().rate(f);
  for (FlowId f : {FlowId{0}, FlowId{3}, FlowId{4}, FlowId{gb * 5 / 8},
                   FlowId{gb - 1}}) {
    r.sampled_rates.push_back(sim.throughput().rate(f));
  }
  for (FlowId f = gb; f < gb + kGlSenders; ++f) {
    const auto& s = sim.wait().flow_summary(f);
    if (s.count()) {
      r.gl_max_wait = std::max(r.gl_max_wait, s.max());
      r.gl_packets += s.count();
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ssq::bench::BenchReport report("radix64_scale", argc, argv,
                                 {"--jobs="});
  const unsigned jobs = report.jobs();
  std::cout << "Radix-64 scale run: 64x64 SSVC switch, 512-bit bus "
               "(4 GB levels + GL lane + BE lane), hotspot output with 36 "
               "reserved senders\n\n";

  // Three independent configuration points (the same hotspot scenario at
  // radix 16/32/64), farmed out to the pool; the radix-64 point feeds the
  // detailed tables below.
  constexpr std::uint32_t kRadices[] = {16, 32, kRadix};
  const std::vector<ScalePoint> points = ssq::bench::run_points<ScalePoint>(
      jobs, 3, [&](std::size_t i) { return run_scale(kRadices[i]); });
  const ScalePoint& r64 = points[2];

  stats::Table t("Hotspot reservations (sample)");
  t.header({"flow", "reserved", "offered_share_of_entitlement",
            "accepted", "entitled(min(offer,share))", "kept"});
  const std::uint32_t gb = gb_senders(kRadix);
  const FlowId sampled[] = {FlowId{0}, FlowId{3}, FlowId{4},
                            FlowId{gb * 5 / 8}, FlowId{gb - 1}};
  for (std::size_t i = 0; i < 5; ++i) {
    const double reserved = gb_rate(kRadix, sampled[i]);
    const double accepted = r64.sampled_rates[i];
    const double entitled = std::min(0.5, reserved * 8.0 / 9.0);
    t.row()
        .cell("in" + std::to_string(sampled[i]))
        .cell(reserved, 3)
        .cell(0.5 / (reserved * 8.0 / 9.0), 1)
        .cell(accepted, 4)
        .cell(entitled, 4)
        .cell(accepted >= entitled * 0.93 ? "yes" : "NO");
  }
  report.table(t);

  const double bound = qosmath::gl_wait_bound(
      {.l_max = 8, .l_min = 2, .n_gl = kGlSenders, .buffer_flits = 4});
  stats::Table g("Guaranteed latency at radix 64");
  g.header({"gl_packets", "measured_max_wait", "eq1_bound", "within"});
  g.row()
      .cell(r64.gl_packets)
      .cell(r64.gl_max_wait, 1)
      .cell(bound, 1)
      .cell(r64.gl_max_wait <= bound ? "yes" : "NO");
  report.table(g);

  stats::Table sp("Simulation speed vs radix (210k cycles each)");
  sp.header({"radix", "wall_s", "cycles_per_sec"});
  for (const ScalePoint& p : points) {
    sp.row()
        .cell(static_cast<std::uint64_t>(p.radix))
        .cell(p.wall_s, 3)
        .cell(210000.0 / p.wall_s, 0);
  }
  report.table(sp);

  std::cout << "Hotspot GB aggregate: " << r64.gb_total
            << " flits/cycle of the 0.889 deliverable; simulated 210k "
               "cycles of a 64x64 switch in "
            << r64.wall_s << " s ("
            << static_cast<long>(210000.0 / r64.wall_s) << " cycles/s).\n";
  report.metric("sim_cycles_per_sec", 210000.0 / r64.wall_s);
  return 0;
}
