#include "traffic/workload.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "sim/contracts.hpp"
#include "sim/error.hpp"

namespace ssq::traffic {

Workload::Workload(std::uint32_t radix) : radix_(radix) {
  ssq::detail::config_check(radix >= 1 && radix <= 64,
                            "workload radix out of range [1,64]");
  gl_rate_.assign(radix, 0.0);
  gl_packet_len_.assign(radix, 1);
}

FlowId Workload::add_flow(FlowSpec spec) {
  spec.validate(radix_);
  flows_.push_back(std::move(spec));
  return static_cast<FlowId>(flows_.size() - 1);
}

void Workload::set_gl_reservation(OutputId dst, double rate,
                                  std::uint32_t packet_len) {
  ssq::detail::config_check(dst < radix_,
                            "GL reservation output out of range");
  ssq::detail::config_check(rate >= 0.0 && rate <= 1.0,
                            "GL reserve rate out of range [0,1]");
  ssq::detail::config_check(packet_len >= 1,
                            "GL reserve packet length must be >= 1");
  gl_rate_[dst] = rate;
  gl_packet_len_[dst] = packet_len;
}

const FlowSpec& Workload::flow(FlowId id) const {
  SSQ_EXPECT(id < flows_.size());
  return flows_[id];
}

std::uint32_t Workload::sum_gb_rates(OutputId dst,
                                     std::span<double> rate) const {
  std::uint32_t gb_len = 1;
  for (const auto& f : flows_) {
    if (f.dst != dst || f.cls != TrafficClass::GuaranteedBandwidth) continue;
    rate[f.src] += f.reserved_rate;
    gb_len = std::max(gb_len, f.mean_len());
  }
  return gb_len;
}

core::OutputAllocation Workload::allocation_for(OutputId dst) const {
  SSQ_EXPECT(dst < radix_);
  core::OutputAllocation alloc = core::OutputAllocation::none(radix_);
  alloc.gb_packet_len = sum_gb_rates(dst, alloc.gb_rate);
  alloc.gl_rate = gl_rate_[dst];
  alloc.gl_packet_len = gl_packet_len_[dst];
  return alloc;
}

void Workload::validate() const {
  for (const auto& f : flows_) f.validate(radix_);
  ssq::detail::config_check(
      crosspoints_exclusive(),
      "two GB flows share one (src,dst) crosspoint; each crosspoint carries "
      "one flow");
  // A passing validation allocates nothing: the rates of one output are
  // summed on the stack, and the message naming it is built only on failure.
  std::array<double, 64> rate{};  // radix <= 64
  const std::span<double> rates(rate.data(), radix_);
  for (OutputId o = 0; o < radix_; ++o) {
    std::fill(rates.begin(), rates.end(), 0.0);
    sum_gb_rates(o, rates);
    if (!core::OutputAllocation::admissible(rates, gl_rate_[o])) {
      throw ConfigError("output " + std::to_string(o) +
                        " over-subscribed: sum of GB rates + GL rate > 1");
    }
  }
}

bool Workload::crosspoints_exclusive() const {
  std::array<std::uint64_t, 64> gb_dsts{};  // per source: outputs seen
  for (const auto& f : flows_) {
    if (f.cls != TrafficClass::GuaranteedBandwidth) continue;
    const std::uint64_t bit = 1ULL << f.dst;
    if ((gb_dsts[f.src] & bit) != 0) return false;
    gb_dsts[f.src] |= bit;
  }
  return true;
}

}  // namespace ssq::traffic
