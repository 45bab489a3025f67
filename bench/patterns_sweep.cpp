// Extension — classic synthetic traffic patterns across the switch.
//
// The NoC evaluation staples (uniform random, hotspot, transpose, tornado,
// neighbour) on the radix-8 SSVC crossbar: saturation throughput and mean
// latency per pattern, with and without QoS reservations. Permutation
// patterns saturate at the full L/(L+1) per port (no output conflicts);
// uniform random loses to output contention; the hotspot concentrates
// everything on one channel.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats/table.hpp"
#include "switch/crossbar.hpp"
#include "traffic/patterns.hpp"

namespace {

using namespace ssq;

struct Result {
  double accepted_per_input = 0.0;
  double mean_latency = 0.0;
};

Result run(traffic::Pattern pattern, TrafficClass cls, double load) {
  traffic::PatternConfig pc;
  pc.pattern = pattern;
  pc.radix = 8;
  pc.load_per_input = load;
  pc.packet_len = 8;
  pc.cls = cls;
  auto workload = traffic::build_pattern(pc);
  const std::size_t flows = workload.num_flows();

  auto config = bench::paper_switch_config();
  sw::CrossbarSwitch sim(config, std::move(workload));
  sim.warmup(5000);
  sim.measure(40000);
  Result r;
  double lat = 0.0;
  std::size_t lat_n = 0;
  for (FlowId f = 0; f < flows; ++f) {
    r.accepted_per_input += sim.throughput().rate(f);
    const auto& s = sim.latency().flow_summary(f);
    if (s.count()) {
      lat += s.mean();
      ++lat_n;
    }
  }
  r.accepted_per_input /= 8.0;
  r.mean_latency = lat_n ? lat / static_cast<double>(lat_n) : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ssq::bench::BenchReport report("patterns_sweep", argc, argv,
                                 {"--jobs="});
  const unsigned jobs = report.jobs();
  std::cout << "Extension: classic synthetic patterns on the radix-8 SSVC "
               "switch (8-flit packets; per-port ceiling 8/9)\n\n";

  // Enumerate every (class, pattern, load) point, farm the independent
  // simulations out to the pool, then render in enumeration order.
  constexpr TrafficClass kClasses[] = {TrafficClass::BestEffort,
                                       TrafficClass::GuaranteedBandwidth};
  constexpr traffic::Pattern kPatterns[] = {
      traffic::Pattern::UniformRandom, traffic::Pattern::Hotspot,
      traffic::Pattern::Transpose, traffic::Pattern::Tornado,
      traffic::Pattern::Neighbour};
  constexpr double kLoads[] = {0.2, 0.5, 0.9};
  struct Point {
    TrafficClass cls;
    traffic::Pattern pattern;
    double load;
  };
  std::vector<Point> points;
  for (TrafficClass cls : kClasses)
    for (traffic::Pattern p : kPatterns)
      for (double load : kLoads) points.push_back({cls, p, load});
  const std::vector<Result> results = ssq::bench::run_points<Result>(
      jobs, points.size(), [&](std::size_t i) {
        return run(points[i].pattern, points[i].cls, points[i].load);
      });

  std::size_t next = 0;
  for (TrafficClass cls : kClasses) {
    stats::Table t(std::string("Accepted flits/input/cycle (") +
                   (cls == TrafficClass::BestEffort ? "best-effort"
                                                    : "GB-reserved") +
                   ")");
    t.header({"pattern", "load=0.2", "lat", "load=0.5", "lat", "load=0.9",
              "lat"});
    for (traffic::Pattern p : kPatterns) {
      t.row().cell(traffic::pattern_name(p));
      for ([[maybe_unused]] double load : kLoads) {
        const Result& r = results[next++];
        t.cell(r.accepted_per_input, 3);
        t.cell(r.mean_latency, 1);
      }
    }
    report.table(t);
  }
  std::cout << "Permutations reach the 0.889 per-port ceiling; uniform "
               "random is limited by the single-BE-queue head-of-line "
               "blocking (BE) or sustains higher load via per-output GB "
               "queues (GB); the hotspot funnels all eight inputs into one "
               "0.889 channel (~0.111/input).\n";
  return 0;
}
