// Shared helpers for the bench binaries: paper-standard configurations,
// flow builders, and the BenchReport output harness. Every bench prints its
// tables via ssq::stats::Table, accepts `--csv` for machine-readable output
// and `--json[=PATH]` to also write a BENCH_<name>.json report (schema
// documented in docs/OBSERVABILITY.md), and rejects any option it does not
// read (exit 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "sim/error.hpp"
#include "stats/table.hpp"
#include "switch/config.hpp"
#include "traffic/flow.hpp"

namespace ssq::bench {

/// Runs `fn(i)` for every configuration point in [0, n) on `jobs` threads
/// and returns the results in index order. `fn` must be pure per index
/// (every sweep bench constructs its switch + RNG inside the callable).
template <typename R, typename Fn>
std::vector<R> run_points(unsigned jobs, std::size_t n, Fn&& fn) {
  exec::ThreadPool pool(jobs);
  return exec::run_batch<R>(pool, n, std::forward<Fn>(fn));
}

/// Per-bench output harness. Renders every table to stdout exactly like the
/// old `t.render(std::cout, csv)` calls, and — when `--json` (default path
/// `BENCH_<name>.json`) or `--json=PATH` is passed — also serialises all
/// tables plus any scalar metrics to one JSON object on destruction:
///
///   {"schema":"ssq.bench.v1","bench":"<name>",
///    "metrics":{"<name>":<number>,...},
///    "tables":[{"title":"...","columns":[...],"rows":[[...],...]},...]}
class BenchReport {
 public:
  /// The one argv check of a bench. Besides --csv, --json and --json=PATH,
  /// only the options in `extra` are accepted: an entry ending in '='
  /// ("--jobs=") admits that option with a value, any other entry
  /// ("--quick") admits exactly itself. Anything else, or a bad --jobs
  /// value, prints one line naming it and exits 2.
  BenchReport(std::string name, int argc, char** argv,
              std::initializer_list<std::string_view> extra = {})
      : name_(std::move(name)), csv_(stats::want_csv(argc, argv)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--json") {
        json_path_ = "BENCH_" + name_ + ".json";
      } else if (arg.substr(0, 7) == "--json=") {
        json_path_ = std::string(arg.substr(7));
      } else if (arg != "--csv" && !admitted(arg, extra)) {
        std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
        std::exit(2);
      } else if (arg.substr(0, 7) == "--jobs=") {
        try {
          jobs_ = cli::parse_jobs(arg.substr(7), "--jobs");
        } catch (const ConfigError& e) {
          std::cerr << argv[0] << ": " << e.what() << "\n";
          std::exit(2);
        }
      }
    }
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { write(); }

  [[nodiscard]] bool csv() const noexcept { return csv_; }

  /// `--jobs=N` (default 1 = serial; 0 = all hardware threads). Sweep
  /// benches farm independent configuration points out to this many
  /// threads; each point seeds its own RNG from the switch config, so
  /// results are identical at any job count.
  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Renders `t` to stdout and queues it for the JSON report.
  void table(const stats::Table& t) {
    t.render(std::cout, csv_);
    if (!json_path_.empty()) tables_.push_back(t);
  }

  /// Records a headline scalar (e.g. cycles/sec) for the JSON report.
  void metric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }

  /// Writes the JSON report now (idempotent; also called by the dtor).
  void write() {
    if (json_path_.empty() || written_) return;
    written_ = true;
    std::ofstream os(json_path_);
    if (!os) {
      std::cerr << "bench: cannot open '" << json_path_ << "' for writing\n";
      return;
    }
    os << "{\"schema\":\"ssq.bench.v1\",\"bench\":" << obs::json_quote(name_)
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) os << ',';
      os << obs::json_quote(metrics_[i].first) << ':'
         << obs::json_number(metrics_[i].second);
    }
    os << "},\"tables\":[";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto& tab = tables_[t];
      if (t) os << ',';
      os << "\n{\"title\":" << obs::json_quote(tab.title())
         << ",\"columns\":[";
      for (std::size_t c = 0; c < tab.columns().size(); ++c) {
        if (c) os << ',';
        os << obs::json_quote(tab.columns()[c]);
      }
      os << "],\"rows\":[";
      for (std::size_t r = 0; r < tab.rows().size(); ++r) {
        if (r) os << ',';
        os << '[';
        for (std::size_t c = 0; c < tab.rows()[r].size(); ++c) {
          if (c) os << ',';
          os << obs::json_quote(tab.rows()[r][c]);
        }
        os << ']';
      }
      os << "]}";
    }
    os << "]}\n";
    if (!csv_) std::cout << "json report: " << json_path_ << "\n";
  }

 private:
  static bool admitted(std::string_view arg,
                       std::initializer_list<std::string_view> extra) {
    for (const std::string_view e : extra) {
      if (e.ends_with('=') ? arg.starts_with(e) : arg == e) return true;
    }
    return false;
  }

  std::string name_;
  bool csv_ = false;
  unsigned jobs_ = 1;
  bool written_ = false;
  std::string json_path_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<stats::Table> tables_;
};

/// The evaluation-section switch configuration: radix 8, 128-bit channel
/// (16 lanes), "4 significant bits of auxVC", 16-flit buffers, 8-flit
/// packets (Fig. 4 details). lsb_bits = 5 keeps the level granularity at 32
/// cycles so the Fig. 4 Vtick range (22.5–180 cycles) resolves across
/// levels; vtick_shift = 2 extends the 8-bit Vtick register to the 1 %
/// allocations of Fig. 5.
inline sw::SwitchConfig paper_switch_config() {
  sw::SwitchConfig c;
  c.radix = 8;
  c.ssvc.level_bits = 4;
  c.ssvc.lsb_bits = 5;
  c.ssvc.vtick_bits = 8;
  c.ssvc.vtick_shift = 2;
  c.buffers.be_flits = 16;
  c.buffers.gb_flits_per_output = 16;
  c.buffers.gl_flits = 16;
  c.seed = 0xDAC2014;
  return c;
}

inline traffic::FlowSpec make_gb_flow(
    InputId src, OutputId dst, double rate, std::uint32_t len,
    double inject_rate,
    traffic::InjectKind kind = traffic::InjectKind::Bernoulli) {
  traffic::FlowSpec f;
  f.src = src;
  f.dst = dst;
  f.cls = TrafficClass::GuaranteedBandwidth;
  f.reserved_rate = rate;
  f.len_min = f.len_max = len;
  f.inject = kind;
  f.inject_rate = inject_rate;
  return f;
}

inline traffic::FlowSpec make_gl_flow(InputId src, OutputId dst,
                                      std::uint32_t len, double inject_rate) {
  traffic::FlowSpec f;
  f.src = src;
  f.dst = dst;
  f.cls = TrafficClass::GuaranteedLatency;
  f.len_min = f.len_max = len;
  f.inject = traffic::InjectKind::Bernoulli;
  f.inject_rate = inject_rate;
  return f;
}

}  // namespace ssq::bench
