// Strict command-line value parsing shared by the tools and bench drivers.
//
// Every value is parsed with std::from_chars over the whole string: no sign,
// no surrounding whitespace, no trailing characters, no wrap-around on
// overflow. `--seed=-1` is an error, not seed 2^64-1. Failures throw
// ssq::ConfigError naming the option, which each tool reports on stderr and
// turns into its bad-usage exit code.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "sim/error.hpp"

namespace ssq::cli {

/// Returns the value of `--key=value` ("" for a bare `--key`), or nullopt if
/// `arg` is a different option.
inline std::optional<std::string> opt_value(std::string_view arg,
                                            std::string_view key) {
  if (arg.substr(0, key.size()) != key) return std::nullopt;
  if (arg.size() == key.size()) return std::string{};
  if (arg[key.size()] != '=') return std::nullopt;
  return std::string(arg.substr(key.size() + 1));
}

/// The whole value must be decimal digits that fit in T.
template <typename T>
T parse_uint(std::string_view value, std::string_view option) {
  T out{};
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, out);
  if (value.empty() || ec != std::errc{} || ptr != last) {
    throw ConfigError("invalid value '" + std::string(value) + "' for " +
                      std::string(option) + " (expected an unsigned integer)");
  }
  return out;
}

/// The whole value must be a finite decimal number (a leading '-' is the
/// only sign accepted).
inline double parse_double(std::string_view value, std::string_view option) {
  double out = 0.0;
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, out);
  if (value.empty() || ec != std::errc{} || ptr != last ||
      !std::isfinite(out)) {
    throw ConfigError("invalid value '" + std::string(value) + "' for " +
                      std::string(option) + " (expected a number)");
  }
  return out;
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

}  // namespace ssq::cli
