#include "campaign/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "campaign/fields.hpp"

namespace ssq::campaign {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::Fail: return "fail";
    case Verdict::Quarantined: return "quarantined";
  }
  return "?";
}

std::string Record::encode() const {
  std::string body;
  body.reserve(160);
  if (type == Type::Start) {
    body = "{\"t\":\"s\",\"j\":" + std::to_string(j) +
           ",\"a\":" + std::to_string(attempt);
  } else {
    body = "{\"t\":\"d\",\"j\":" + std::to_string(j) +
           ",\"a\":" + std::to_string(attempt) + ",\"v\":\"" +
           to_string(verdict) + "\",\"kind\":\"" + kind +
           "\",\"cycle\":" + std::to_string(fail_cycle) +
           ",\"grants\":" + std::to_string(grants) +
           ",\"delivered\":" + std::to_string(delivered) +
           ",\"gb\":" + std::to_string(violations_gb) +
           ",\"gl\":" + std::to_string(violations_gl) +
           ",\"be\":" + std::to_string(violations_be) +
           ",\"win\":" + std::to_string(windows) +
           ",\"faulted\":" + std::to_string(faulted ? 1 : 0);
  }
  return body + ",\"crc\":" + std::to_string(crc32(body)) + "}\n";
}

std::optional<Record> parse_record(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  // Shape: <body>,"crc":<digits>}
  static constexpr std::string_view kCrc = ",\"crc\":";
  if (line.size() < kCrc.size() + 2 || line.front() != '{' ||
      line.back() != '}') {
    return std::nullopt;
  }
  const std::size_t crc_at = line.rfind(kCrc);
  if (crc_at == std::string_view::npos) return std::nullopt;
  const std::string_view body = line.substr(0, crc_at);
  const char* crc_end = line.data() + line.size() - 1;  // at the '}'
  std::uint32_t claimed = 0;
  const auto [end, ec] =
      std::from_chars(line.data() + crc_at + kCrc.size(), crc_end, claimed);
  if (ec != std::errc{} || end != crc_end || crc32(body) != claimed) {
    return std::nullopt;
  }

  // Every field goes through the strict scanner: `"j":0x1` is not unit 0.
  const auto take = [body](const char* key, std::uint64_t& out) {
    const std::optional<std::uint64_t> v = fields::find_u64(body, key);
    if (v) out = *v;
    return v.has_value();
  };
  Record r;
  const std::optional<std::string_view> type = fields::find_text(body, "t");
  std::uint64_t attempt = 0;
  if (!type || !take("j", r.j) || !take("a", attempt) ||
      attempt > UINT32_MAX) {
    return std::nullopt;
  }
  r.attempt = static_cast<std::uint32_t>(attempt);
  if (*type == "s") {
    r.type = Record::Type::Start;
    return r;
  }
  if (*type != "d") return std::nullopt;
  r.type = Record::Type::Done;
  const std::optional<std::string_view> verdict = fields::find_text(body, "v");
  if (verdict == "ok") {
    r.verdict = Verdict::Ok;
  } else if (verdict == "fail") {
    r.verdict = Verdict::Fail;
  } else if (verdict == "quarantined") {
    r.verdict = Verdict::Quarantined;
  } else {
    return std::nullopt;
  }
  if (const auto kind = fields::find_text(body, "kind")) r.kind = *kind;
  std::uint64_t faulted = 0;
  if (!take("cycle", r.fail_cycle) || !take("grants", r.grants) ||
      !take("delivered", r.delivered) || !take("gb", r.violations_gb) ||
      !take("gl", r.violations_gl) || !take("be", r.violations_be) ||
      !take("win", r.windows) || !take("faulted", faulted)) {
    return std::nullopt;
  }
  r.faulted = faulted != 0;
  return r;
}

ShardState load_checkpoint(const std::string& path) {
  ShardState state;
  std::ifstream is(path, std::ios::binary);
  if (!is) return state;  // fresh shard
  std::string line;
  std::uint64_t offset = 0;
  while (std::getline(is, line)) {
    const std::uint64_t line_bytes = line.size() + 1;  // + '\n'
    const bool complete = !is.eof();  // getline at EOF without '\n'
    const std::optional<Record> r = parse_record(line);
    if (!r.has_value() || !complete) {
      // Torn or corrupted: everything from here is untrusted. A bad record
      // mid-file (bit rot, concurrent writer bug) also invalidates the tail
      // — records after it may depend on work we can no longer vouch for.
      ++state.corrupt_records;
      break;
    }
    offset += line_bytes;
    ShardState::Unit& u = state.units[r->j];
    if (r->type == Record::Type::Start) {
      u.attempts = std::max(u.attempts, r->attempt);
    } else if (!u.done.has_value()) {
      u.done = *r;
    }
  }
  state.valid_bytes = offset;
  return state;
}

CheckpointWriter::~CheckpointWriter() { close(); }

bool CheckpointWriter::open(const std::string& path,
                            std::uint64_t truncate_to) {
  close();
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec && size > truncate_to) {
    std::filesystem::resize_file(path, truncate_to, ec);
    if (ec) return false;
  }
  file_ = std::fopen(path.c_str(), "ab");
  return file_ != nullptr;
}

bool CheckpointWriter::append(const Record& r) {
  if (file_ == nullptr) return false;
  const std::string line = r.encode();
  bool ok = std::fwrite(line.data(), 1, line.size(), file_) == line.size();
  ok = ok && std::fflush(file_) == 0;
  ok = ok && ::fsync(::fileno(file_)) == 0;
  if (!ok) close();
  return ok;
}

void CheckpointWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

namespace {
std::string shard_file(const std::string& dir, std::uint64_t k,
                       const char* suffix) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%05" PRIu64, k);
  return dir + "/" + buf + suffix;
}
}  // namespace

std::string ckpt_path(const std::string& dir, std::uint64_t k) {
  return shard_file(dir, k, ".ckpt.jsonl");
}
std::string lock_path(const std::string& dir, std::uint64_t k) {
  return shard_file(dir, k, ".lock");
}
std::string done_marker_path(const std::string& dir, std::uint64_t k) {
  return shard_file(dir, k, ".done");
}

}  // namespace ssq::campaign
