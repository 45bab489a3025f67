// Accepted-throughput accounting.
//
// The paper's Fig. 4 y-axis is "Accepted Throughput at Output
// (flits/input/cycle)": flits delivered at an output on behalf of each input,
// divided by measured cycles. ThroughputMeter counts delivered flits per flow
// and per (input, output) pair over an explicit measurement window so warmup
// traffic is excluded.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/types.hpp"

namespace ssq::stats {

class ThroughputMeter {
 public:
  explicit ThroughputMeter(std::size_t num_flows = 0) : flits_(num_flows, 0) {}

  void resize(std::size_t num_flows) { flits_.assign(num_flows, 0); }

  /// Opens the measurement window at `now` (call after warmup).
  void open_window(Cycle now) noexcept {
    window_start_ = now;
    window_end_ = kNoCycle;
    for (auto& f : flits_) f = 0;
    total_ = 0;
  }

  /// Closes the window (call before reading rates).
  void close_window(Cycle now) noexcept {
    SSQ_EXPECT(now >= window_start_);
    window_end_ = now;
  }

  /// Records one delivered flit for `flow` at cycle `now` (ignored outside
  /// the window).
  void record_flit(std::size_t flow, Cycle now) {
    SSQ_EXPECT(flow < flits_.size());
    if (now < window_start_) return;
    if (window_end_ != kNoCycle && now >= window_end_) return;
    ++flits_[flow];
    ++total_;
  }

  /// Retracts up to `n` previously recorded flits for `flow` (an aborted
  /// PVC transfer is waste, not goodput). Window-edge approximation: flits
  /// recorded before the window opened cannot be retracted, so at most the
  /// in-window count is subtracted.
  void unrecord_flits(std::size_t flow, std::uint64_t n) {
    SSQ_EXPECT(flow < flits_.size());
    const std::uint64_t take = n < flits_[flow] ? n : flits_[flow];
    flits_[flow] -= take;
    total_ -= take;
  }

  [[nodiscard]] std::uint64_t flits(std::size_t flow) const {
    SSQ_EXPECT(flow < flits_.size());
    return flits_[flow];
  }

  [[nodiscard]] Cycle window_cycles() const noexcept {
    SSQ_EXPECT(window_end_ != kNoCycle);
    return window_end_ - window_start_;
  }

  /// Delivered rate for `flow` in flits/cycle over the closed window.
  [[nodiscard]] double rate(std::size_t flow) const {
    const Cycle cycles = window_cycles();
    return cycles == 0 ? 0.0
                       : static_cast<double>(flits(flow)) /
                             static_cast<double>(cycles);
  }

  /// Aggregate delivered rate in flits/cycle over the closed window.
  [[nodiscard]] double total_rate() const {
    const Cycle cycles = window_cycles();
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_) /
                             static_cast<double>(cycles);
  }

 private:
  std::vector<std::uint64_t> flits_;
  std::uint64_t total_ = 0;
  Cycle window_start_ = 0;
  Cycle window_end_ = kNoCycle;
};

}  // namespace ssq::stats
