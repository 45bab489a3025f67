// Per-flow packet latency recording.
//
// A LatencyRecorder owns one Streaming accumulator and one Histogram per flow,
// sized once (at workload build time); the hot path is an index into a flat
// vector.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/contracts.hpp"
#include "stats/histogram.hpp"
#include "stats/streaming.hpp"

namespace ssq::stats {

class LatencyRecorder {
 public:
  /// Every per-flow histogram has kHistBins bins kHistBinWidth cycles wide.
  static constexpr double kHistBinWidth = 4.0;
  static constexpr std::size_t kHistBins = 512;

  explicit LatencyRecorder(std::size_t num_flows = 0) { resize(num_flows); }

  /// One empty slot per flow, indexed by FlowId.
  void resize(std::size_t num_flows) { flows_.assign(num_flows, FlowSlot{}); }

  [[nodiscard]] std::size_t num_flows() const noexcept { return flows_.size(); }

  void record(std::size_t flow, double latency_cycles) {
    SSQ_EXPECT(flow < flows_.size());
    auto& slot = flows_[flow];
    slot.summary.add(latency_cycles);
    slot.histogram.add(latency_cycles);
  }

  [[nodiscard]] const Streaming& flow_summary(std::size_t flow) const {
    SSQ_EXPECT(flow < flows_.size());
    return flows_[flow].summary;
  }
  [[nodiscard]] const Histogram& flow_histogram(std::size_t flow) const {
    SSQ_EXPECT(flow < flows_.size());
    return flows_[flow].histogram;
  }

  void reset() noexcept {
    for (auto& f : flows_) {
      f.summary.reset();
      f.histogram.reset();
    }
  }

 private:
  struct FlowSlot {
    Streaming summary;
    Histogram histogram{kHistBinWidth, kHistBins};
  };

  std::vector<FlowSlot> flows_;
};

}  // namespace ssq::stats
