// Workload: the set of flows offered to a switch, plus per-output GL-class
// reservations, with admission validation and derivation of the per-output
// allocations the QoS arbiters are configured with (paper §3.3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/allocation.hpp"
#include "sim/types.hpp"
#include "traffic/flow.hpp"

namespace ssq::traffic {

class Workload {
 public:
  explicit Workload(std::uint32_t radix);

  /// Adds a flow and returns its FlowId (dense, in insertion order).
  FlowId add_flow(FlowSpec spec);

  /// Configures the shared GL reservation of output `dst` (§3.3: "the
  /// output reserves a small fraction of bandwidth for any GL packet
  /// injected from any input to that output"). `packet_len` is the nominal
  /// GL packet length used for the GL Vtick.
  void set_gl_reservation(OutputId dst, double rate, std::uint32_t packet_len);

  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }
  [[nodiscard]] const std::vector<FlowSpec>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] const FlowSpec& flow(FlowId id) const;
  [[nodiscard]] std::size_t num_flows() const noexcept { return flows_.size(); }

  /// Configured GL reservation of output `dst` (0 if none).
  [[nodiscard]] double gl_reservation_rate(OutputId dst) const {
    SSQ_EXPECT(dst < radix_);
    return gl_rate_[dst];
  }
  [[nodiscard]] std::uint32_t gl_reservation_packet_len(OutputId dst) const {
    SSQ_EXPECT(dst < radix_);
    return gl_packet_len_[dst];
  }

  /// Per-output allocation implied by this workload's GB flows and GL
  /// reservations. The GB nominal packet length is taken as the largest
  /// mean packet length among that output's GB flows.
  [[nodiscard]] core::OutputAllocation allocation_for(OutputId dst) const;

  /// Validates every flow and every output's admissibility. Throws
  /// ssq::ConfigError on violations — an inadmissible workload would produce
  /// guarantees the hardware could not give.
  void validate() const;

  /// True iff at most one GB flow occupies each (src, dst) crosspoint —
  /// the hardware constraint ("each crosspoint is configured to transmit
  /// packets of one particular flow").
  [[nodiscard]] bool crosspoints_exclusive() const;

 private:
  /// Adds each GB flow's reservation into output `dst` to rate[src] (size
  /// radix, in flow order) and returns the largest mean packet length among
  /// those flows (1 when none).
  std::uint32_t sum_gb_rates(OutputId dst, std::span<double> rate) const;

  std::uint32_t radix_;
  std::vector<FlowSpec> flows_;
  std::vector<double> gl_rate_;                 // per output
  std::vector<std::uint32_t> gl_packet_len_;    // per output
};

}  // namespace ssq::traffic
