#include "campaign/manifest.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "campaign/fields.hpp"
#include "obs/json.hpp"
#include "sim/atomic_file.hpp"
#include "sim/error.hpp"

namespace ssq::campaign {

namespace fs = std::filesystem;

GridPoint parse_grid_point(const std::string& label) {
  GridPoint p;
  p.label = label;
  std::stringstream ss(label);
  std::string tok;
  if (label.empty()) throw ConfigError("empty grid label");
  while (std::getline(ss, tok, '+')) {
    if (tok == "default") {
      // no-op: the plain differential configuration
    } else if (tok == "monitor") {
      p.opts.monitor = true;
      p.opts.flight_recorder = 256;
    } else if (tok == "no-circuit") {
      p.opts.circuit = false;
    } else if (tok == "no-state") {
      p.opts.state_compare = false;
    } else if (tok == "noff") {
      p.fast_forward = false;
    } else if (tok == "sparse") {
      p.sparse = true;
    } else if (tok.rfind("engine=", 0) == 0) {
      // Overrides every scenario's matching engine: the sweep then exercises
      // that engine's invariants-only checking across the whole corpus.
      p.engine = arb::parse_match_kind(tok.substr(7));
      if (*p.engine == arb::MatchKind::Starve) {
        throw ConfigError(
            "engine=starve would fail every scenario; use ssq_fuzz "
            "--plant=engine_starve for the progress-guard self-test");
      }
    } else {
      throw ConfigError("unknown grid token '" + tok + "' in '" + label +
                        "' (expected default, monitor, no-circuit, no-state, "
                        "noff, sparse or engine=<name>, joined with '+')");
    }
  }
  return p;
}

std::uint64_t Manifest::shard_begin(std::uint64_t k) const noexcept {
  // Adaptive tail sizing: the last quarter of the shards carry half the
  // units of the rest (weight 1 vs 2), so a campaign ends on small shards —
  // parallel workers converge instead of one worker holding a final
  // full-size shard while the others idle. Realised by proportional weight
  // prefixes, which partitions [0, total) exactly for any shard count:
  // begin(0) == 0, begin(shards) == total, and begins are non-decreasing
  // because the weight prefix is.
  const std::uint64_t total = total_units();
  if (k >= shards) return total;
  const std::uint64_t tail = shards / 4;  // 0 for tiny shard counts
  const std::uint64_t head = shards - tail;
  const std::uint64_t weight_sum = 2 * head + tail;
  const std::uint64_t prefix = 2 * std::min(k, head) + (k > head ? k - head : 0);
  // 128-bit intermediate: total * prefix can exceed 64 bits on huge sweeps.
  return static_cast<std::uint64_t>(static_cast<__uint128_t>(total) * prefix /
                                    weight_sum);
}

std::uint64_t Manifest::shard_end(std::uint64_t k) const noexcept {
  return shard_begin(k + 1);
}

const Plant* Manifest::planted_at(std::uint64_t j) const noexcept {
  for (const Plant& p : planted) {
    if (p.index == j) return &p;
  }
  return nullptr;
}

void Manifest::validate() const {
  detail::config_check(scenarios > 0, "campaign: scenarios must be positive");
  detail::config_check(shards > 0, "campaign: shards must be positive");
  detail::config_check(shards <= 100000, "campaign: shards too large (max 100000)");
  detail::config_check(!grid.empty(), "campaign: grid must not be empty");
  detail::config_check(scenarios <= UINT64_MAX / grid.size(),
                       "campaign: scenarios times grid points overflows the "
                       "64-bit work-unit count");
  detail::config_check(max_attempts > 0,
                       "campaign: max-attempts must be positive");
  detail::config_check(scenario_timeout_ms >= 100,
                       "campaign: scenario-timeout-ms must be >= 100");
  for (const GridPoint& g : grid) {
    (void)parse_grid_point(g.label);  // label must round-trip
  }
  for (const Plant& p : planted) {
    detail::config_check(p.index < total_units(),
                         "campaign: planted index out of range");
  }
}

std::string Manifest::serialize() const {
  std::string out = "{\"schema\":\"ssq.campaign.manifest.v1\"";
  out += ",\"base_seed\":" + std::to_string(base_seed);
  out += ",\"scenarios\":" + std::to_string(scenarios);
  out += ",\"shards\":" + std::to_string(shards);
  out += ",\"grid\":[";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i) out += ',';
    out += obs::json_quote(grid[i].label);
  }
  out += "],\"max_attempts\":" + std::to_string(max_attempts);
  out += ",\"scenario_timeout_ms\":" + std::to_string(scenario_timeout_ms);
  out += ",\"throttle_ms\":" + std::to_string(throttle_ms);
  out += ",\"planted\":[";
  for (std::size_t i = 0; i < planted.size(); ++i) {
    if (i) out += ',';
    out += std::string("{\"kind\":\"") +
           (planted[i].kind == Plant::Kind::Hang ? "hang" : "crash") +
           "\",\"index\":" + std::to_string(planted[i].index) + "}";
  }
  out += "]}\n";
  return out;
}

namespace {

/// `"key":N` of the manifest, at most `max`.
std::uint64_t manifest_u64(std::string_view text, const std::string& key,
                           std::uint64_t max = UINT64_MAX) {
  const std::optional<std::uint64_t> v = fields::find_u64(text, key);
  if (!v || *v > max) {
    throw ConfigError("manifest: field '" + key +
                      "' is missing or not an unsigned integer <= " +
                      std::to_string(max));
  }
  return *v;
}

/// The body of the manifest's `"key":[...]` array.
std::string manifest_array(std::string_view text, const std::string& key) {
  const std::optional<std::string_view> body =
      fields::find_text(text, key, '[');
  if (!body) {
    throw ConfigError("manifest: array '" + key +
                      "' is missing or unterminated");
  }
  return std::string(*body);
}

}  // namespace

Manifest parse_manifest(const std::string& text) {
  if (text.find("\"schema\":\"ssq.campaign.manifest.v1\"") ==
      std::string::npos) {
    throw ConfigError("manifest: missing or unknown schema "
                      "(expected ssq.campaign.manifest.v1)");
  }
  Manifest m;
  m.base_seed = manifest_u64(text, "base_seed");
  m.scenarios = manifest_u64(text, "scenarios");
  m.shards = manifest_u64(text, "shards");
  m.max_attempts = static_cast<std::uint32_t>(
      manifest_u64(text, "max_attempts", UINT32_MAX));
  m.scenario_timeout_ms = manifest_u64(text, "scenario_timeout_ms");
  m.throttle_ms = manifest_u64(text, "throttle_ms");
  m.grid.clear();
  const std::string grid = manifest_array(text, "grid");
  std::size_t pos = 0;
  while ((pos = grid.find('"', pos)) != std::string::npos) {
    const std::size_t end = grid.find('"', pos + 1);
    if (end == std::string::npos) {
      throw ConfigError("manifest: unterminated grid label");
    }
    m.grid.push_back(parse_grid_point(grid.substr(pos + 1, end - pos - 1)));
    pos = end + 1;
  }
  const std::string planted = manifest_array(text, "planted");
  pos = 0;
  while ((pos = planted.find("{\"kind\":\"", pos)) != std::string::npos) {
    const std::size_t k0 = pos + 9;
    const std::size_t k1 = planted.find('"', k0);
    if (k1 == std::string::npos) {
      throw ConfigError("manifest: unterminated planted kind");
    }
    const std::string kind = planted.substr(k0, k1 - k0);
    Plant p;
    if (kind == "hang") {
      p.kind = Plant::Kind::Hang;
    } else if (kind == "crash") {
      p.kind = Plant::Kind::Crash;
    } else {
      throw ConfigError("manifest: unknown planted kind '" + kind + "'");
    }
    p.index = manifest_u64(std::string_view(planted).substr(k1), "index");
    m.planted.push_back(p);
    pos = k1 + 1;
  }
  m.validate();
  return m;
}

Manifest load_manifest(const std::string& dir) {
  const fs::path path = fs::path(dir) / "manifest.json";
  std::ifstream is(path);
  if (!is) {
    throw ConfigError("campaign: cannot open '" + path.string() +
                      "' — not a campaign directory? (create one with --new)");
  }
  std::stringstream buf;
  buf << is.rdbuf();
  return parse_manifest(buf.str());
}

void init_campaign_dir(const std::string& dir, const Manifest& m) {
  m.validate();
  const fs::path root(dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    throw ConfigError("campaign: cannot create directory '" + dir +
                      "': " + ec.message());
  }
  const fs::path path = root / "manifest.json";
  if (fs::exists(path)) {
    throw ConfigError("campaign: '" + path.string() +
                      "' already exists (resume it with --resume, or pick a "
                      "fresh directory)");
  }
  if (!write_file_atomic(path.string(), m.serialize())) {
    throw ConfigError("campaign: cannot write '" + path.string() + "'");
  }
}

}  // namespace ssq::campaign
