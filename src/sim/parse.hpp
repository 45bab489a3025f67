// Strict number parsing shared by command-line flags (tools/cli.hpp) and the
// text formats (traffic/workload_io, check/scenario).
//
// Every value is parsed with std::from_chars over the whole string: no sign
// on an unsigned value, no surrounding whitespace, no trailing characters,
// no wrap-around on overflow, no NaN or infinity. `--seed=-1` and
// `cycles=-5` are errors, not 2^64-1 and 2^64-5.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "sim/error.hpp"

namespace ssq {

/// The whole of `text` as decimal digits that fit in T, else nullopt.
template <typename T>
std::optional<T> to_uint(std::string_view text) {
  T out{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  if (text.empty() || ec != std::errc{} || ptr != last) return std::nullopt;
  return out;
}

/// The whole of `text` as a finite decimal number (a leading '-' is the only
/// sign accepted), else nullopt.
inline std::optional<double> to_double(std::string_view text) {
  double out = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  if (text.empty() || ec != std::errc{} || ptr != last ||
      !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

/// to_uint, throwing ConfigError naming `option` on a bad value.
template <typename T>
T parse_uint(std::string_view value, std::string_view option) {
  if (const auto x = to_uint<T>(value)) return *x;
  throw ConfigError("invalid value '" + std::string(value) + "' for " +
                    std::string(option) + " (expected an unsigned integer)");
}

/// to_double, throwing ConfigError naming `option` on a bad value.
inline double parse_double(std::string_view value, std::string_view option) {
  if (const auto x = to_double(value)) return *x;
  throw ConfigError("invalid value '" + std::string(value) + "' for " +
                    std::string(option) + " (expected a number)");
}

}  // namespace ssq
