// stability_lab — throughput floor and delay curves for the matching
// engines (SSVC single-request emulation, iSLIP, QPS-r, SW-QPS) on the cell
// model (src/check/stability.hpp), over admissible synthetic patterns.
//
// One wide comparison table: a row per (pattern, load) point, a column
// group (throughput, mean delay, p99 delay) per engine, so the engines are
// read side by side. `--json[=PATH]` additionally writes every point as an
// ssq.stability.v1 report (schema in docs/SCHEDULING.md).
//
// Exit codes: 0 ok, 2 bad usage/config.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/stability.hpp"
#include "common.hpp"
#include "obs/json.hpp"
#include "sim/error.hpp"
#include "stats/table.hpp"

#include "cli.hpp"

namespace {

using namespace ssq;

constexpr const char* kHelp = R"(usage: stability_lab [options]

Measures throughput floor, mean/p99 cell delay and convergence iterations
for the matching engines on the cell model (unit cells, unbounded VOQs).

  --radix=N       switch radix (default 16)
  --cycles=N      measured slots per point (default 20000)
  --warmup=N      warmup slots before measurement (default 2000)
  --iters=N       iteration budget / SW-QPS window (default 3)
  --seed=N        base seed (default 1); traffic is identical across engines
  --engines=LIST  comma list of ssvc,islip,qps,swqps (default all four)
  --patterns=LIST comma list of uniform,diagonal,logdiag,hotspot
                  (default all four)
  --loads=LIST    comma list of offered loads in (0,1)
                  (default 0.5,0.7,0.85,0.95)
  --jobs=N        measure points on N threads (0 = all hardware threads)
  --csv           CSV table output
  --json[=PATH]   also write the ssq.stability.v1 JSON report
                  (default stability.json)
  --help          this message
)";

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) throw ConfigError("empty list value");
  return out;
}

using cli::opt_value;
using cli::parse_uint;

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t radix = 16;
  Cycle cycles = 20000;
  Cycle warmup = 2000;
  std::uint32_t iters = 3;
  std::uint64_t seed = 1;
  std::vector<arb::MatchKind> engines = {
      arb::MatchKind::Ssvc, arb::MatchKind::Islip, arb::MatchKind::Qps,
      arb::MatchKind::SwQps};
  std::vector<check::TrafficPattern> patterns = {
      check::TrafficPattern::Uniform, check::TrafficPattern::Diagonal,
      check::TrafficPattern::LogDiagonal, check::TrafficPattern::Hotspot};
  std::vector<double> loads = {0.5, 0.7, 0.85, 0.95};
  std::string json_path;
  bool csv = false;

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string_view arg = argv[a];
      if (arg == "--help") {
        std::cout << kHelp;
        return 0;
      } else if (auto v = opt_value(arg, "--radix")) {
        radix = parse_uint<std::uint32_t>(*v, "--radix");
      } else if (auto v2 = opt_value(arg, "--cycles")) {
        cycles = parse_uint<Cycle>(*v2, "--cycles");
      } else if (auto v3 = opt_value(arg, "--warmup")) {
        warmup = parse_uint<Cycle>(*v3, "--warmup");
      } else if (auto v4 = opt_value(arg, "--iters")) {
        iters = parse_uint<std::uint32_t>(*v4, "--iters");
      } else if (auto v5 = opt_value(arg, "--seed")) {
        seed = parse_uint<std::uint64_t>(*v5, "--seed");
      } else if (auto v6 = opt_value(arg, "--engines")) {
        engines.clear();
        for (const auto& e : split_csv(*v6)) {
          engines.push_back(arb::parse_match_kind(e));
        }
      } else if (auto v7 = opt_value(arg, "--patterns")) {
        patterns.clear();
        for (const auto& p : split_csv(*v7)) {
          patterns.push_back(check::parse_pattern(p));
        }
      } else if (auto v8 = opt_value(arg, "--loads")) {
        loads.clear();
        for (const auto& l : split_csv(*v8)) {
          loads.push_back(cli::parse_double(l, "--loads"));
        }
      } else if (arg == "--json") {
        json_path = "stability.json";
      } else if (auto v9 = opt_value(arg, "--json")) {
        json_path = *v9;
      } else if (arg == "--csv") {
        csv = true;
      } else if (arg.substr(0, 7) == "--jobs=") {
        // handled by bench::parse_jobs below
      } else {
        std::cerr << "unknown option '" << arg << "' (--help for the list)\n";
        return 2;
      }
    }

    // One measurement per (pattern, load, engine), farmed out per point;
    // every point draws from its own (seed, pattern, load) streams, so the
    // results are identical at any --jobs value. Engines see IDENTICAL
    // traffic at a given (pattern, load): the comparison is paired.
    struct PointSpec {
      check::TrafficPattern pattern;
      double load;
      arb::MatchKind engine;
    };
    std::vector<PointSpec> specs;
    for (const auto p : patterns) {
      for (const double l : loads) {
        for (const auto e : engines) specs.push_back({p, l, e});
      }
    }
    const unsigned jobs = bench::parse_jobs(argc, argv);
    std::vector<check::StabilityPoint> points =
        bench::run_points<check::StabilityPoint>(
            jobs, specs.size(), [&](std::size_t k) {
              check::StabilityConfig cfg;
              cfg.radix = radix;
              cfg.engine = specs[k].engine;
              cfg.iterations = iters;
              cfg.pattern = specs[k].pattern;
              cfg.load = specs[k].load;
              cfg.warmup = warmup;
              cfg.cycles = cycles;
              cfg.seed = seed;
              return check::measure_stability(cfg);
            });

    // Wide comparison table: engines side by side per (pattern, load).
    stats::Table t("stability lab: radix " + std::to_string(radix) + ", " +
                   std::to_string(cycles) + " slots, iters " +
                   std::to_string(iters));
    std::vector<std::string> head = {"pattern", "load"};
    for (const auto e : engines) {
      const std::string n(arb::match_kind_name(e));
      head.push_back(n + "_thpt");
      head.push_back(n + "_mean");
      head.push_back(n + "_p99");
    }
    t.header(head);
    std::size_t k = 0;
    for (const auto p : patterns) {
      for (const double l : loads) {
        auto& row = t.row();
        row.cell(std::string(check::to_string(p))).cell(l, 2);
        for (std::size_t e = 0; e < engines.size(); ++e, ++k) {
          const check::StabilityPoint& pt = points[k];
          row.cell(pt.throughput, 4)
              .cell(pt.mean_delay, 1)
              .cell(static_cast<std::uint64_t>(pt.p99_delay));
        }
      }
    }
    t.render(std::cout, csv);

    if (!json_path.empty()) {
      std::ofstream os(json_path);
      if (!os) throw ConfigError("cannot open '" + json_path + "'");
      os << "{\"schema\":\"ssq.stability.v1\",\"radix\":" << radix
         << ",\"cycles\":" << cycles << ",\"warmup\":" << warmup
         << ",\"iterations\":" << iters << ",\"seed\":" << seed
         << ",\"points\":[";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const check::StabilityPoint& pt = points[i];
        if (i) os << ',';
        os << "\n{\"engine\":" << obs::json_quote(pt.engine)
           << ",\"pattern\":" << obs::json_quote(pt.pattern)
           << ",\"load\":" << fmt(pt.load, 4)
           << ",\"offered\":" << fmt(pt.offered, 6)
           << ",\"throughput\":" << fmt(pt.throughput, 6)
           << ",\"arrived\":" << pt.arrived << ",\"departed\":" << pt.departed
           << ",\"mean_delay\":" << fmt(pt.mean_delay, 3)
           << ",\"p99_delay\":" << pt.p99_delay
           << ",\"max_backlog\":" << pt.max_backlog
           << ",\"backlog_end\":" << pt.backlog_end
           << ",\"avg_iterations\":" << fmt(pt.avg_iterations, 3) << "}";
      }
      os << "\n]}\n";
      if (!csv) std::cout << "json report: " << json_path << "\n";
    }
    return 0;
  } catch (const ConfigError& e) {
    std::cerr << "stability_lab: " << e.what() << "\n";
    return 2;
  }
}
