// Per-shard checkpoint journals: append-only, checksummed JSONL.
//
// Every work unit a shard runner touches leaves a record here:
//
//   {"t":"s","j":J,"a":A,"crc":C}                   — attempt A started
//   {"t":"d","j":J,"a":A,"v":"ok",...,"crc":C}      — finished, verdict
//
// The journal is the campaign's durability story, so it is designed around
// the failure modes, not the happy path:
//   * Records are appended and fsync'd one at a time; a `kill -9` (or power
//     cut) can therefore lose at most the record being written.
//   * Every record carries a CRC-32 of its own body. A torn tail — half a
//     line, a line with a corrupted byte, garbage after a partial block
//     write — fails the checksum and is discarded back to the last good
//     record (load_checkpoint reports the byte offset to truncate to before
//     appending resumes, so the file never accumulates junk).
//   * A start record without a matching done record is evidence: the
//     process died or wedged inside that unit. Attempts are counted from
//     start records, which is what drives retry-then-quarantine.
//
// Replaying the journal against the manifest re-derives exactly which units
// are done, which failed, and which are poisoned — resume needs no other
// state.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ssq::campaign {

/// CRC-32 (IEEE 802.3, reflected) of `data`. Stable across platforms.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

enum class Verdict : std::uint8_t { Ok, Fail, Quarantined };
[[nodiscard]] const char* to_string(Verdict v) noexcept;

/// One journal record. Start records use only j/attempt; done records carry
/// the verdict and the scenario's telemetry (merged into the final report).
struct Record {
  enum class Type : std::uint8_t { Start, Done };
  Type type = Type::Start;
  std::uint64_t j = 0;        // global work-unit index
  std::uint32_t attempt = 1;  // 1-based
  Verdict verdict = Verdict::Ok;
  std::string kind;  // failure kind / quarantine reason ("hang", "crash")
  std::uint64_t fail_cycle = 0;
  std::uint64_t grants = 0;
  std::uint64_t delivered = 0;
  std::uint64_t violations_gb = 0;
  std::uint64_t violations_gl = 0;
  std::uint64_t violations_be = 0;
  std::uint64_t windows = 0;
  bool faulted = false;

  /// One JSONL line, newline-terminated, with the trailing CRC field.
  [[nodiscard]] std::string encode() const;
};

/// Parses one line (without requiring the trailing newline). Returns
/// nullopt for anything that does not round-trip: wrong shape, bad CRC,
/// truncation.
[[nodiscard]] std::optional<Record> parse_record(std::string_view line);

/// Everything the journal proves about a shard's progress.
struct ShardState {
  struct Unit {
    std::uint32_t attempts = 0;  // start records seen
    std::optional<Record> done;  // first done record wins
  };
  std::map<std::uint64_t, Unit> units;  // by global index j
  /// Byte offset of the end of the last intact record; everything after is
  /// a torn tail to truncate before appending.
  std::uint64_t valid_bytes = 0;
  /// Records dropped by checksum/shape validation (0 on a clean file).
  std::uint64_t corrupt_records = 0;

  [[nodiscard]] bool is_done(std::uint64_t j) const {
    const auto it = units.find(j);
    return it != units.end() && it->second.done.has_value();
  }
  [[nodiscard]] std::uint32_t attempts(std::uint64_t j) const {
    const auto it = units.find(j);
    return it == units.end() ? 0 : it->second.attempts;
  }
};

/// Loads a journal, validating record by record; stops at the first bad
/// record. A missing file is an empty state (fresh shard), not an error.
[[nodiscard]] ShardState load_checkpoint(const std::string& path);

/// Append-side handle. open() truncates a torn tail (as reported by
/// load_checkpoint) so appends always extend a valid prefix, then opens in
/// append mode. Every append is flushed and fsync'd.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Returns false (with the handle closed) on I/O failure.
  bool open(const std::string& path, std::uint64_t truncate_to);
  bool append(const Record& r);
  void close();

 private:
  std::FILE* file_ = nullptr;
};

/// Campaign-directory layout helpers (shard files are zero-padded so a
/// directory listing sorts in shard order).
[[nodiscard]] std::string ckpt_path(const std::string& dir, std::uint64_t k);
[[nodiscard]] std::string lock_path(const std::string& dir, std::uint64_t k);
[[nodiscard]] std::string done_marker_path(const std::string& dir,
                                           std::uint64_t k);

}  // namespace ssq::campaign
