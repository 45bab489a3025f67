// The one field scanner for the campaign's own flat JSON lines: the
// manifest (manifest.cpp) and the checkpoint journal records
// (checkpoint.cpp). Both are written by this library, so the scanner reads
// exactly that form and refuses anything else rather than guess: a value
// that merely starts like a number is not one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/parse.hpp"

namespace ssq::campaign::fields {

/// Where the value of the first `"key":` in `text` starts, or npos.
inline std::size_t value_at(std::string_view text, std::string_view key) {
  // Appended, not chained with operator+: GCC 12 at -O3 raises a false
  // -Werror=restrict on the chained form once this is inlined.
  std::string needle;
  needle.reserve(key.size() + 3);
  needle.append("\"").append(key).append("\":");
  const std::size_t at = text.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

/// The unsigned integer of `"key":N`: the whole of N, up to the next ','
/// or '}' or the end of `text`, under sim/parse.hpp's rules (digits only,
/// no wrap). nullopt when absent or malformed.
inline std::optional<std::uint64_t> find_u64(std::string_view text,
                                             std::string_view key) {
  const std::size_t at = value_at(text, key);
  if (at == std::string_view::npos) return std::nullopt;
  return to_uint<std::uint64_t>(
      text.substr(at, text.find_first_of(",}", at) - at));
}

/// The text between the delimiters of `"key":"..."` (open '"') or
/// `"key":[...]` (open '['): no escapes and no nesting — the writers never
/// emit either. nullopt when absent or unterminated.
inline std::optional<std::string_view> find_text(std::string_view text,
                                                 std::string_view key,
                                                 char open = '"') {
  const std::size_t at = value_at(text, key);
  if (at == std::string_view::npos || at == text.size() || text[at] != open) {
    return std::nullopt;
  }
  const std::size_t end = text.find(open == '[' ? ']' : open, at + 1);
  if (end == std::string_view::npos) return std::nullopt;
  return text.substr(at + 1, end - at - 1);
}

}  // namespace ssq::campaign::fields
