// §4.4 — "Scalability": num_lanes = output_bus_width / radix; at least three
// lanes are needed for the three QoS classes; 128-bit buses cover radix
// 8/16/32 and a radix-64 switch needs a 256-bit bus. Also reports the GB
// level resolution each configuration affords and the Vtick quantisation
// error of the finite register.
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/params.hpp"
#include "qosmath/lanes.hpp"
#include "qosmath/vtick_analysis.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) {
  using namespace ssq;
  bench::BenchReport report("sec44_scalability", argc, argv, {"--jobs="});
  const unsigned jobs = report.jobs();
  std::cout << "Sec. 4.4 reproduction: lane budget and SSVC accuracy vs "
               "radix and bus width\n\n";

  stats::Table lanes("Lane budget (num_lanes = bus_width / radix)");
  lanes.header({"radix", "bus_bits", "lanes", "supports_3_classes",
                "gb_lanes_with_gl_be", "gb_level_bits"});
  for (std::uint32_t radix : {8u, 16u, 32u, 64u}) {
    for (std::uint32_t width : {128u, 256u, 512u}) {
      const auto gb = qosmath::gb_lanes_available(width, radix, true, true);
      std::uint32_t bits = 0;
      while (gb != 0 && (1u << bits) < gb) ++bits;
      lanes.row()
          .cell(static_cast<std::uint64_t>(radix))
          .cell(static_cast<std::uint64_t>(width))
          .cell(static_cast<std::uint64_t>(qosmath::num_lanes(width, radix)))
          .cell(qosmath::supports_classes(width, radix, 3) ? "yes" : "no")
          .cell(static_cast<std::uint64_t>(gb))
          .cell(static_cast<std::uint64_t>(gb ? bits : 0));
    }
  }
  report.table(lanes);
  std::cout << "Paper: 128-bit suffices for radix 8/16/32; radix 64 needs "
               "256-bit for three classes; not scalable past 64 nodes.\n\n";

  stats::Table vt("Vtick register quantisation (8-bit register, 8-flit "
                  "packets)");
  vt.header({"vtick_shift", "rate_range", "worst_rate_error_%"});
  // Each shift's error sweep is an independent configuration point.
  constexpr std::uint32_t kShifts[] = {0u, 1u, 2u, 3u};
  struct VtPoint {
    double lo = 0.0;
    double error = 0.0;
  };
  const std::vector<VtPoint> vts =
      bench::run_points<VtPoint>(jobs, 4, [&](std::size_t i) {
        core::SsvcParams p;
        p.vtick_bits = 8;
        p.vtick_shift = kShifts[i];
        VtPoint out;
        out.lo = kShifts[i] >= 2 ? 0.01 : 0.05;  // range the register covers
        out.error = qosmath::max_vtick_error(p, out.lo, 0.40, 8);
        return out;
      });
  for (std::size_t i = 0; i < 4; ++i) {
    vt.row()
        .cell(static_cast<std::uint64_t>(kShifts[i]))
        .cell(std::to_string(vts[i].lo) + " .. 0.40")
        .cell(vts[i].error * 100.0, 2);
  }
  report.table(vt);
  return 0;
}
