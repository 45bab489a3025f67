// §2.2 / §5 — SSVC against every related QoS mechanism the paper discusses,
// on the same switch and workload:
//
//   * LRG (no QoS), round-robin, age — class-blind fairness baselines,
//   * TDM slot tables (Æthereal/Nostrum style) — strict but wasteful,
//   * GSF-style frame regulation at the source,
//   * WRR / DWRR — static weighted baselines,
//   * packet-level WFQ — the O(N) finish-time family,
//   * exact Virtual Clock — SSVC without the thermometer coarsening,
//   * the 4-level fixed-priority design of [14],
//   * SSVC (this paper).
//
// Scenario 1: all flows saturated (does the policy deliver the reserved
// split?). Scenario 2: the largest reservation goes idle (is the leftover
// redistributed, or wasted? — "WRR and DWRR lead to network underutilization
// as they do not distribute leftover bandwidth…", "[in TDM] that time slot
// is wasted").
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats/table.hpp"
#include "switch/simulator.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace ssq;

const std::vector<double> kRates = {0.40, 0.30, 0.20, 0.10};
constexpr std::uint32_t kLen = 8;

struct Policy {
  const char* name;
  sw::ArbitrationMode mode;
  arb::Kind kind;
  bool gsf;
};

const std::vector<Policy> kPolicies = {
    {"lrg (no QoS)", sw::ArbitrationMode::Baseline, arb::Kind::Lrg, false},
    {"round_robin", sw::ArbitrationMode::Baseline, arb::Kind::RoundRobin,
     false},
    {"age", sw::ArbitrationMode::Baseline, arb::Kind::Age, false},
    {"tdm (Aethereal/Nostrum)", sw::ArbitrationMode::Baseline, arb::Kind::Tdm,
     false},
    {"gsf-style (frames+lrg)", sw::ArbitrationMode::Baseline, arb::Kind::Lrg,
     true},
    {"wrr", sw::ArbitrationMode::Baseline, arb::Kind::Wrr, false},
    {"dwrr", sw::ArbitrationMode::Baseline, arb::Kind::Dwrr, false},
    {"wfq", sw::ArbitrationMode::Baseline, arb::Kind::Wfq, false},
    {"virtual_clock (exact)", sw::ArbitrationMode::Baseline,
     arb::Kind::VirtualClock, false},
    {"4-level fixed prio [14]", sw::ArbitrationMode::Baseline,
     arb::Kind::MultiLevel, false},
    {"ssvc (this paper)", sw::ArbitrationMode::SsvcQos, arb::Kind::Lrg,
     false},
};

sw::ExperimentResult run(const Policy& p, bool flow0_idle) {
  traffic::Workload w(4);
  for (InputId i = 0; i < 4; ++i) {
    auto f = bench::make_gb_flow(i, 0, kRates[i], kLen,
                                 (i == 0 && flow0_idle) ? 0.001 : 0.9);
    f.legacy_priority = 2;  // the 4-level design: all "level 2" messages
    w.add_flow(f);
  }
  auto config = bench::paper_switch_config();
  config.radix = 4;
  config.mode = p.mode;
  config.baseline = p.kind;
  config.gsf.enabled = p.gsf;
  config.arbitration_cycles =
      p.kind == arb::Kind::MultiLevel && p.mode == sw::ArbitrationMode::Baseline
          ? 2
          : 1;
  return sw::run_experiment(config, std::move(w), 5000, 60000);
}

void scenario(const char* title, bool flow0_idle, unsigned jobs,
              bench::BenchReport& report) {
  stats::Table t(title);
  t.header({"policy", "f0(40%)", "f1(30%)", "f2(20%)", "f3(10%)", "total",
            "mean_latency"});
  // One independent simulation per policy; results rendered in policy order.
  const std::vector<sw::ExperimentResult> results =
      bench::run_points<sw::ExperimentResult>(
          jobs, kPolicies.size(),
          [&](std::size_t i) { return run(kPolicies[i], flow0_idle); });
  for (std::size_t pi = 0; pi < kPolicies.size(); ++pi) {
    const auto& p = kPolicies[pi];
    const auto& r = results[pi];
    t.row().cell(p.name);
    double lat = 0.0;
    int lat_n = 0;
    for (const auto& f : r.flows) {
      t.cell(f.accepted_rate, 3);
      if (f.delivered_packets > 0) {
        lat += f.mean_latency;
        ++lat_n;
      }
    }
    t.cell(r.total_accepted_rate, 3);
    t.cell(lat_n ? lat / lat_n : 0.0, 1);
  }
  report.table(t);
}

}  // namespace

int main(int argc, char** argv) {
  ssq::bench::BenchReport report("baselines_comparison", argc, argv,
                                 {"--jobs="});
  const unsigned jobs = report.jobs();
  std::cout << "Sec. 2.2 / Sec. 5 baselines: one output, reservations "
               "40/30/20/10 %, 8-flit packets\n\n";
  scenario("Scenario 1 - all flows saturated (offered 0.9 each)", false, jobs,
           report);
  scenario("Scenario 2 - the 40% flow goes idle: is its share "
           "redistributed or wasted?",
           true, jobs, report);
  std::cout
      << "Reading scenario 2's `total`: work-conserving policies fill the "
         "channel (~0.889);\nTDM wastes the idle owner's slots; GSF loses "
         "its barrier window on top of LRG's\nequal split; SSVC "
         "redistributes the leftover while still honouring the remaining\n"
         "reservations.\n";
  return 0;
}
