// Plain-text workload description format, so experiments can be run from
// files (tools/ssq_sim) and exchanged without recompiling.
//
// Line-based, `#` comments, whitespace-separated key=value fields:
//
//     # 8-port switch, one GB stream, one BE hog, one GL heartbeat
//     radix 8
//     flow src=0 dst=7 class=gb rate=0.30 len=8 inject=bernoulli load=0.25
//     flow src=1 dst=7 class=be len=8 inject=bernoulli load=0.8
//     flow src=2 dst=7 class=gl len=1 inject=bernoulli load=0.005
//     gl_reservation dst=7 rate=0.05 len=1
//
// Flow fields:
//   src= dst=           port indices (required)
//   class=              be | gb | gl            (default be)
//   rate=               GB reserved fraction    (required for gb)
//   len= / len_min= len_max=   packet length in flits (default 1)
//   inject=             bernoulli | onoff | periodic | burst (default bernoulli)
//   load=               offered flits/cycle (bernoulli/onoff/periodic)
//   on= off=            onoff mean burst/idle cycles
//   burst_start= burst_packets=   burst injection
//   start=              first cycle the flow may inject (default 0)
//   prio=               legacy 4-level message priority (default 0)
//
// The reader is strict — a workload silently misread is worse than no
// workload. Each of these throws ssq::ConfigError naming the file, the line
// and the field:
//   - a key the directive does not read, or a key given twice;
//   - an integer field that is not unsigned decimal digits fitting its type
//     (no sign, no fraction, no exponent, no trailing junk);
//   - a number field that is not a finite decimal number.
//
// The scenario format (check/scenario) reads its files with the same
// LineReader/FieldMap and its `flow` and `glres` lines with read_flow and
// read_gl_reservation, so both formats share these rules.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/parse.hpp"
#include "traffic/workload.hpp"

namespace ssq::traffic {

/// The key=value fields of one line. Every field must be read by an
/// accessor before done(), so a misspelt key is an error, not a default.
class FieldMap {
 public:
  /// Throws (via `fail`) on a token without '=' and on a repeated key.
  FieldMap(const std::vector<std::string>& tokens, const std::string& where);

  /// Throws ConfigError("<where>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

  [[nodiscard]] std::optional<std::string> get(std::string_view key);
  [[nodiscard]] std::string require(std::string_view key);
  /// An unsigned integer of the fallback's type.
  template <typename T>
  [[nodiscard]] T integer(std::string_view key, T fallback) {
    const std::optional<std::string> v = get(key);
    if (!v) return fallback;
    if (const auto x = to_uint<T>(*v)) return *x;
    fail("field '" + std::string(key) + "' is not an unsigned " +
         std::to_string(std::numeric_limits<T>::digits) +
         "-bit integer: " + *v);
  }
  template <typename T>
  [[nodiscard]] T require_integer(std::string_view key) {
    (void)require(key);
    return integer<T>(key, T{});
  }
  [[nodiscard]] double number(std::string_view key, double fallback);
  [[nodiscard]] double require_number(std::string_view key);

  /// Throws on the first field no accessor read.
  void done() const;

 private:
  struct Field {
    std::string key;
    std::string value;
    bool read = false;
  };
  std::vector<Field> fields_;
  std::string where_;
};

/// Walks a file of the line format: strips `#` comments, skips blank lines,
/// splits whitespace-separated tokens. Errors read
/// "<format> parse error at <file>:<line>: <what>".
class LineReader {
 public:
  LineReader(std::istream& in, std::string format, std::string file);

  /// Advances to the next non-blank line; false at end of input.
  bool next();
  [[nodiscard]] const std::string& directive() const { return tokens_[0]; }
  /// The positional `radix <N>` line, N in [2,64].
  [[nodiscard]] std::uint32_t radix() const;
  /// The key=value fields after the directive.
  [[nodiscard]] FieldMap parse_fields() const;
  [[noreturn]] void fail(const std::string& what) const;

 private:
  [[nodiscard]] std::string where() const;

  std::istream& in_;
  std::string format_;
  std::string file_;
  int line_ = 0;
  std::vector<std::string> tokens_;
};

/// The fields of a `flow` line (see the list above); rejects any other key.
[[nodiscard]] FlowSpec read_flow(FieldMap& fields);
/// Writes a `flow` line; doubles at the stream's precision.
void write_flow(std::ostream& out, const FlowSpec& flow);

/// A GL reservation line: `dst=` and `rate=` required, `len=` default 1, no
/// other key.
struct GlReservation {
  OutputId dst = 0;
  double rate = 0.0;
  std::uint32_t packet_len = 1;
};
[[nodiscard]] GlReservation read_gl_reservation(FieldMap& fields);
/// Writes `<directive> dst=.. rate=.. len=..`; doubles at the stream's
/// precision.
void write_gl_reservation(std::ostream& out, std::string_view directive,
                          const GlReservation& g);

/// Parses a workload description; throws ssq::ConfigError with file:line
/// context on errors.
[[nodiscard]] Workload parse_workload(std::istream& in,
                                      const std::string& name = "<stream>");

/// Loads a workload from a file path.
[[nodiscard]] Workload load_workload(const std::string& path);

/// Serialises a workload back to the text format, doubles at the stream's
/// precision (the default 6 significant digits unless the caller sets
/// more), so every field the format covers reads back, doubles to that
/// precision.
void write_workload(std::ostream& out, const Workload& workload);

}  // namespace ssq::traffic
