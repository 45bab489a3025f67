// Deterministic mutational fuzzing of the two line-format readers,
// check::parse_scenario and traffic::parse_workload, of the campaign
// manifest reader, campaign::parse_manifest, and of checkpoint journals as
// campaign::write_reports loads and merges them. Every committed golden
// scenario and example workload is mutated line by line and byte by byte,
// two serialised manifests bit by bit and token by token, and a journal
// record by record; each mutant must parse or throw ssq::ConfigError —
// never crash, hang, abort on a contract or trip a sanitizer (the ASan+UBSan
// CI job runs this binary too). Mutants are parsed, never run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/service.hpp"
#include "check/scenario.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"
#include "traffic/workload_io.hpp"

namespace ssq {
namespace {

namespace fs = std::filesystem;

struct Seed {
  std::string name;
  std::string text;
  bool scenario;
};

std::vector<Seed> corpus() {
  std::vector<Seed> seeds;
  const auto add = [&](const char* dir, const char* ext, bool scenario) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ext) continue;
      std::ifstream in(entry.path());
      std::ostringstream text;
      text << in.rdbuf();
      seeds.push_back({entry.path().filename().string(), text.str(), scenario});
    }
  };
  add(SSQ_GOLDEN_DIR, ".scenario", true);
  add(SSQ_EXAMPLES_DIR, ".workload", false);
  std::sort(seeds.begin(), seeds.end(),
            [](const Seed& a, const Seed& b) { return a.name < b.name; });
  return seeds;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string tok; in >> tok;) tokens.push_back(tok);
  return tokens;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const auto& p : parts) out += p + sep;
  return out;
}

struct Tally {
  std::uint64_t mutants = 0;
  std::uint64_t rejected = 0;
};

/// Parses `text` with the seed's reader: true if it parsed, false on
/// ConfigError. Any other outcome fails the test, naming the mutant.
bool parses(const Seed& seed, const std::string& text, const std::string& how,
            Tally& tally) {
  ++tally.mutants;
  std::istringstream in(text);
  try {
    if (seed.scenario) {
      (void)check::parse_scenario(in, seed.name);
    } else {
      (void)traffic::parse_workload(in, seed.name);
    }
    return true;
  } catch (const ConfigError&) {
    ++tally.rejected;
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << seed.name << " (" << how << ") threw " << e.what()
                  << ":\n"
                  << text;
    return false;
  }
}

/// The seed with line `l` replaced by `tokens` re-joined.
std::string with_line(const std::vector<std::string>& lines, std::size_t l,
                      const std::vector<std::string>& tokens) {
  std::vector<std::string> out = lines;
  out[l] = join(tokens, ' ');
  return join(out, '\n');
}

TEST(ParserMutation, EveryMutantParsesOrThrowsConfigError) {
  const std::vector<Seed> seeds = corpus();
  ASSERT_GE(seeds.size(), 12u);
  const char* const kBadValues[] = {
      "",    "-1",   "4294967296", "18446744073709551616", "1e30",
      "nan", "0x10", "1.5",        "x"};
  Tally tally;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Seed& seed = seeds[i];
    ASSERT_TRUE(parses(seed, seed.text, "unmutated", tally)) << seed.name;
    const std::vector<std::string> lines = split_lines(seed.text);

    // Truncated after each line.
    std::string prefix;
    for (const auto& line : lines) {
      prefix += line + "\n";
      (void)parses(seed, prefix, "truncated", tally);
    }

    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::vector<std::string> tokens = split_tokens(lines[l]);
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        const std::string& tok = tokens[t];
        const auto eq = tok.find('=');
        // Each value replaced (the whole token for the positional radix).
        for (const char* bad : kBadValues) {
          std::vector<std::string> m = tokens;
          m[t] = eq == std::string::npos ? bad : tok.substr(0, eq + 1) + bad;
          (void)parses(seed, with_line(lines, l, m), "value " + m[t], tally);
        }
        // The token repeated.
        std::vector<std::string> repeated = tokens;
        repeated.insert(repeated.begin() + static_cast<std::ptrdiff_t>(t),
                        tok);
        (void)parses(seed, with_line(lines, l, repeated), "repeat " + tok,
                     tally);
        // Its '=' dropped.
        if (eq != std::string::npos) {
          std::vector<std::string> m = tokens;
          m[t].erase(eq, 1);
          (void)parses(seed, with_line(lines, l, m), "no '=' " + tok, tally);
        }
      }
    }

    // Seeded byte flips: 1-4 random bytes of the file, each XORed with a
    // random nonzero byte.
    Rng rng(0xb17f11b5ULL + i);
    for (int round = 0; round < 300; ++round) {
      std::string m = seed.text;
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t k = 0; k < flips; ++k) {
        m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
      }
      (void)parses(seed, m, "byte flip round " + std::to_string(round), tally);
    }
  }
  // Teeth: the bad values must actually be refused somewhere.
  EXPECT_GT(tally.mutants, 5000u);
  EXPECT_GT(tally.rejected, tally.mutants / 2);
}

TEST(ParserMutation, EveryManifestMutantParsesOrThrowsConfigError) {
  campaign::Manifest wide;
  wide.scenarios = 50;
  wide.grid = {campaign::parse_grid_point("default"),
               campaign::parse_grid_point("monitor+noff"),
               campaign::parse_grid_point("sparse+engine=islip")};
  wide.planted = {{campaign::Plant::Kind::Hang, 3},
                  {campaign::Plant::Kind::Crash, 120}};
  const std::string seeds[] = {campaign::Manifest{}.serialize(),
                               wide.serialize()};
  const char* const kSplices[] = {"18446744073709551615",
                                  "9223372036854775808", "\"scenarios\":",
                                  "\"grid\":[", "{\"kind\":\"hang\",\"index\":"};
  Tally tally;
  // A parsed manifest must be self-consistent: in particular its unit count
  // must not have wrapped.
  const auto check = [&](const std::string& text, const std::string& how) {
    ++tally.mutants;
    try {
      const campaign::Manifest m = campaign::parse_manifest(text);
      EXPECT_EQ(m.total_units() / m.grid.size(), m.scenarios)
          << how << ":\n" << text;
    } catch (const ConfigError&) {
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << how << " threw " << e.what() << ":\n" << text;
    }
  };
  for (std::size_t i = 0; i < std::size(seeds); ++i) {
    const std::string& seed = seeds[i];
    ASSERT_NO_THROW((void)campaign::parse_manifest(seed)) << seed;
    for (std::size_t n = 0; n < seed.size(); ++n) {
      check(seed.substr(0, n), "truncated to " + std::to_string(n));
    }
    for (std::size_t b = 0; b < seed.size() * 8; ++b) {
      std::string m = seed;
      m[b / 8] = static_cast<char>(m[b / 8] ^ (1 << (b % 8)));
      check(m, "bit flip " + std::to_string(b));
    }
    // Each token spliced in at every offset: once swallowing the digit run
    // that starts there (a pure insertion where there is none), once over a
    // seeded 1-8 bytes.
    Rng rng(0x3a71f357ULL + i);
    for (const char* tok : kSplices) {
      for (std::size_t at = 0; at <= seed.size(); ++at) {
        std::size_t digits = at;
        while (digits < seed.size() &&
               std::isdigit(static_cast<unsigned char>(seed[digits])) != 0) {
          ++digits;
        }
        const std::string where = " at " + std::to_string(at);
        std::string m = seed;
        check(m.replace(at, digits - at, tok), "splice " + (tok + where));
        m = seed;
        check(m.replace(at, 1 + rng.below(8), tok),
              "seeded splice " + (tok + where));
      }
    }
  }
  EXPECT_GT(tally.mutants, 8000u);
  EXPECT_GT(tally.rejected, tally.mutants / 2);
}

// ---------------------------------------------------------------- journals

/// A clean journal of units [b, e): a start and a done record per unit,
/// every odd unit failing.
std::vector<std::string> journal(std::uint64_t b, std::uint64_t e,
                                 std::uint64_t grants = 100) {
  std::vector<std::string> lines;
  for (campaign::Record r; b < e; ++b) {
    r.type = campaign::Record::Type::Start;
    r.j = b;
    lines.push_back(r.encode());
    r.type = campaign::Record::Type::Done;
    r.grants = grants + b;
    r.verdict = b % 2 ? campaign::Verdict::Fail : campaign::Verdict::Ok;
    lines.push_back(r.encode());
  }
  return lines;
}

TEST(ParserMutation, EveryJournalMutantMergesOrThrowsConfigError) {
  campaign::Manifest m;  // shard 0 runs units 0-2, shard 1 units 3-5
  m.scenarios = 3;
  m.shards = 2;
  m.grid = {campaign::parse_grid_point("default"),
            campaign::parse_grid_point("monitor")};
  const std::string dir = ::testing::TempDir() + "/ssq_journal_mutants";
  fs::create_directories(dir);
  const auto cat = [](const std::vector<std::string>& recs) {
    return std::accumulate(recs.begin(), recs.end(), std::string());
  };
  std::ofstream(campaign::ckpt_path(dir, 1)) << cat(journal(3, 6));
  // The report write_reports merges with `text` as shard 0's journal.
  const auto merged = [&](const std::string& text) -> std::string {
    std::ofstream(campaign::ckpt_path(dir, 0)) << text;
    try {
      return campaign::render_report(campaign::write_reports(dir, m, {}), m);
    } catch (const ConfigError&) {
      return "ConfigError";
    }
  };
  const std::vector<std::string> lines = journal(0, 3);
  std::vector<std::string> prefix;  // [n]: the report of the first n records
  for (std::ptrdiff_t n = 0; n <= std::ssize(lines); ++n) {
    prefix.push_back(merged(cat({lines.begin(), lines.begin() + n})));
  }
  const std::string& clean = prefix.back();
  // `recs` with `rec` inserted before record `at` must merge to `want`.
  const auto expect = [&](std::vector<std::string> recs, std::size_t at,
                          const std::string& rec, const std::string& want) {
    recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(at), rec);
    EXPECT_EQ(merged(cat(recs)), want) << cat(recs);
  };

  // A tail torn at every byte: only whole records, newline included, count.
  const std::string text = cat(lines);
  for (std::size_t n = 0, whole = 0, end = 0; n < text.size(); ++n) {
    for (; end + lines[whole].size() <= n; ++whole) end += lines[whole].size();
    EXPECT_EQ(merged(text.substr(0, n)), prefix[whole]) << "torn at " << n;
  }
  // Each record moved, repeated, or contradicted later (the first done
  // record wins), and records of units shard 0 does not own (shard 1's, a
  // larger manifest's) at every position: the report is the clean one.
  for (std::size_t at = 0; at <= lines.size(); ++at) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::vector<std::string> rest = lines;
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      if (at < lines.size()) expect(rest, at, lines[i], clean);
      if (i < at) expect(lines, at, lines[i], clean);
      if (i < at) expect(lines, at, journal(0, 3, 900)[i], clean);
    }
    for (const std::string& rec : journal(3, 4)) expect(lines, at, rec, clean);
    expect(lines, at, journal(1000, 1001)[1], clean);
    // A CRC-valid done record whose digits overflow a field, or trail junk,
    // is refused, not read as a plausible value, and ends the journal where
    // it stands.
    for (const std::string field :
         {"\"j\":184467440737095516160", "\"j\":18446744073709551617",
          "\"grants\":18446744073709551616", "\"a\":4294967297",
          "\"j\":0x1", "\"grants\":7x"}) {
      std::string body = journal(0, 1)[1];
      body.resize(body.rfind(",\"crc\":"));
      const std::size_t key = body.find(field.substr(0, field.find(':') + 1));
      body.replace(key, body.find(',', key) - key, field);
      const std::string bad = body + ",\"crc\":" +
                              std::to_string(campaign::crc32(body)) + "}\n";
      EXPECT_FALSE(campaign::parse_record(bad).has_value()) << bad;
      expect(lines, at, bad, prefix[at]);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ssq
