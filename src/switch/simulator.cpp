#include "switch/simulator.hpp"

namespace ssq::sw {

ExperimentResult summarize(const CrossbarSwitch& sw) {
  ExperimentResult result;
  result.measured_cycles = sw.throughput().window_cycles();
  const auto& flows = sw.workload().flows();
  result.flows.reserve(flows.size());
  for (FlowId f = 0; f < flows.size(); ++f) {
    FlowSummary s;
    s.flow = f;
    s.src = flows[f].src;
    s.dst = flows[f].dst;
    s.cls = flows[f].cls;
    s.reserved_rate = flows[f].reserved_rate;
    s.accepted_rate = sw.throughput().rate(f);
    if (result.measured_cycles > 0) {
      s.offered_rate = static_cast<double>(sw.window_created_packets(f)) *
                       static_cast<double>(flows[f].mean_len()) /
                       static_cast<double>(result.measured_cycles);
    }
    const auto& lat = sw.latency().flow_summary(f);
    const auto& lat_hist = sw.latency().flow_histogram(f);
    s.mean_latency = lat.mean();
    s.p50_latency = lat_hist.percentile(0.50);
    s.p95_latency = lat_hist.percentile(0.95);
    s.p99_latency = lat_hist.percentile(0.99);
    s.max_latency = lat.count() ? lat.max() : 0.0;
    const auto& wt = sw.wait().flow_summary(f);
    const auto& wt_hist = sw.wait().flow_histogram(f);
    s.mean_wait = wt.mean();
    s.p50_wait = wt_hist.percentile(0.50);
    s.p95_wait = wt_hist.percentile(0.95);
    s.p99_wait = wt_hist.percentile(0.99);
    s.max_wait = wt.count() ? wt.max() : 0.0;
    s.delivered_packets = sw.delivered_packets(f);
    result.total_accepted_rate += s.accepted_rate;
    result.flows.push_back(s);
  }
  return result;
}

ExperimentResult run_experiment(const SwitchConfig& config,
                                traffic::Workload workload,
                                Cycle warmup_cycles, Cycle measure_cycles) {
  SSQ_EXPECT(measure_cycles >= 1);
  CrossbarSwitch sw(config, std::move(workload));

  sw.warmup(warmup_cycles);
  sw.measure(measure_cycles);
  return summarize(sw);
}

}  // namespace ssq::sw
