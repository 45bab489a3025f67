// Named error type for user-reachable configuration mistakes.
//
// The contract macros (sim/contracts.hpp) abort, which is right for internal
// invariants — a simulator that keeps running after violating a hardware
// invariant produces plausible-looking wrong numbers. But a bad CLI flag, an
// over-subscribed workload file or an out-of-range counter geometry is the
// *user's* input, not a bug: those paths throw ConfigError instead, and the
// drivers (tools/ssq_sim) catch it at main() and exit nonzero with a
// one-line message — no core dumps on bad input.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace ssq {

class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Throws ConfigError(message) when `ok` is false. Used by the validate()
/// methods of every user-reachable configuration struct. A passing check
/// allocates nothing: the std::string is built only on the throwing path, so
/// a switch can validate its radix² counter parameters on every construction.
inline void config_check(bool ok, std::string_view message) {
  if (!ok) throw ConfigError(std::string(message));
}

}  // namespace detail

}  // namespace ssq
