// Strict command-line value parsing shared by the tools and bench drivers.
//
// Numbers go through sim/parse.hpp, the parser the workload and scenario
// files use too: `--seed=-1` is an error, not seed 2^64-1. Failures throw
// ssq::ConfigError naming the option, which each tool reports on stderr and
// turns into its bad-usage exit code.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "exec/thread_pool.hpp"
#include "sim/error.hpp"
#include "sim/parse.hpp"

namespace ssq::cli {

using ssq::parse_double;
using ssq::parse_uint;

/// Returns the value of `--key=value` ("" for a bare `--key`), or nullopt if
/// `arg` is a different option.
inline std::optional<std::string> opt_value(std::string_view arg,
                                            std::string_view key) {
  if (arg.substr(0, key.size()) != key) return std::nullopt;
  if (arg.size() == key.size()) return std::string{};
  if (arg[key.size()] != '=') return std::nullopt;
  return std::string(arg.substr(key.size() + 1));
}

/// parse_uint refusing 0, for counts and periods that must be >= 1.
template <typename T>
T parse_positive(std::string_view value, std::string_view option) {
  const T x = parse_uint<T>(value, option);
  if (x == 0) {
    throw ConfigError("invalid value '" + std::string(value) + "' for " +
                      std::string(option) + " (expected an integer >= 1)");
  }
  return x;
}

/// parse_double restricted to [0, 1].
inline double parse_rate(std::string_view value, std::string_view option) {
  const double x = parse_double(value, option);
  if (x < 0.0 || x > 1.0) {
    throw ConfigError("invalid value '" + std::string(value) + "' for " +
                      std::string(option) + " (expected a rate in [0,1])");
  }
  return x;
}

/// Worker-count option (`--jobs`, `--workers`): 0 means one per hardware
/// thread. Each worker is a thread or a forked process, so a count above
/// kMaxJobs is refused rather than started.
inline constexpr unsigned kMaxJobs = 512;
inline unsigned parse_jobs(std::string_view value, std::string_view option) {
  const auto jobs = parse_uint<unsigned>(value, option);
  if (jobs > kMaxJobs) {
    throw ConfigError(std::string(option) + " too large (max " +
                      std::to_string(kMaxJobs) + ")");
  }
  return jobs == 0 ? exec::ThreadPool::hardware_threads() : jobs;
}

}  // namespace ssq::cli
