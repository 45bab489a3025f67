// Per-output bandwidth allocation (paper §3.3 "Bandwidth Allocation To
// Traffic Classes").
//
// Each input may reserve a fraction of an output channel's bandwidth for its
// GB flow (at most one GB flow per crosspoint — "each crosspoint is
// configured to transmit packets of one particular flow"), and the output
// reserves one small shared fraction for the GL class. Admission control:
// the sum of all GB fractions plus the GL fraction must not exceed the
// channel capacity. BE has no reservation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/error.hpp"
#include "sim/types.hpp"

namespace ssq::core {

struct OutputAllocation {
  /// gb_rate[i] = fraction of this output's bandwidth reserved by input i's
  /// GB flow (0 = no reservation). Each in [0, 1].
  std::vector<double> gb_rate;
  /// Shared GL-class fraction for this output.
  double gl_rate = 0.0;
  /// Nominal packet length (flits) used to derive Vticks for this output's
  /// GB flows.
  std::uint32_t gb_packet_len = 1;
  /// Nominal GL packet length (flits) for the GL Vtick.
  std::uint32_t gl_packet_len = 1;

  /// Builds an allocation with no reservations (pure best-effort output).
  static OutputAllocation none(std::uint32_t radix) {
    OutputAllocation a;
    a.gb_rate.assign(radix, 0.0);
    return a;
  }

  [[nodiscard]] double gb_total() const noexcept {
    double sum = 0.0;
    for (double r : gb_rate) sum += r;
    return sum;
  }

  /// True iff admissible: every rate in range and ΣGB + GL <= 1 (+eps).
  [[nodiscard]] bool admissible(std::uint32_t radix) const noexcept {
    return gb_rate.size() == radix && admissible(gb_rate, gl_rate);
  }
  /// The same test on rates held elsewhere (Workload::validate() sums them
  /// into a stack array rather than build an allocation per output).
  [[nodiscard]] static bool admissible(std::span<const double> gb_rate,
                                       double gl_rate) noexcept {
    if (gl_rate < 0.0 || gl_rate > 1.0) return false;
    double sum = 0.0;
    for (double r : gb_rate) {
      if (r < 0.0 || r > 1.0) return false;
      sum += r;
    }
    return sum + gl_rate <= 1.0 + 1e-9;
  }

  /// Throws ssq::ConfigError: the allocation is user configuration (workload
  /// files, CLI flags), not an internal invariant.
  void validate(std::uint32_t radix) const {
    detail::config_check(
        admissible(radix),
        "output allocation not admissible: reservations out of range or "
        "over-subscribed (sum of GB rates + GL rate > 1)");
    detail::config_check(gb_packet_len >= 1, "gb_packet_len must be >= 1");
    detail::config_check(gl_packet_len >= 1, "gl_packet_len must be >= 1");
  }
};

}  // namespace ssq::core
