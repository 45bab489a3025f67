// Campaign-service coverage: checksummed journal round-trips and corruption
// recovery, manifest identity, shard-range algebra, flock claims, the
// retry-then-quarantine path, and the durability claim itself — a drained
// shard resumed to completion merges into a report byte-identical to an
// uninterrupted run. The process-level version of that claim (kill -9 of a
// live supervisor) lives in campaign_crash_test.sh; everything here runs
// in-process so failures localise to one layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "check/scenario.hpp"
#include "sim/atomic_file.hpp"
#include "sim/error.hpp"

namespace ssq::campaign {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on teardown.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("ssq_campaign_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string dir() const { return dir_.string(); }

 private:
  fs::path dir_;
};

/// Small fast manifest: 6 scenarios x 1 grid point in 2 shards.
Manifest tiny_manifest() {
  Manifest m;
  m.base_seed = 7;
  m.scenarios = 6;
  m.shards = 2;
  m.grid = {parse_grid_point("default")};
  m.max_attempts = 2;
  return m;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------- checksum

TEST(Crc32, KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, SensitiveToEveryByte) {
  const std::string base = "{\"t\":\"d\",\"j\":42}";
  const std::uint32_t ref = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(crc32(mutated), ref) << "byte " << i;
  }
}

// ----------------------------------------------------------------- records

TEST(CheckpointRecord, StartRoundTrip) {
  Record r;
  r.type = Record::Type::Start;
  r.j = 1234567;
  r.attempt = 3;
  const auto back = parse_record(r.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, Record::Type::Start);
  EXPECT_EQ(back->j, 1234567u);
  EXPECT_EQ(back->attempt, 3u);
}

TEST(CheckpointRecord, DoneRoundTripCarriesTelemetry) {
  Record r;
  r.type = Record::Type::Done;
  r.j = 99;
  r.attempt = 2;
  r.verdict = Verdict::Fail;
  r.kind = "grant_mismatch";
  r.fail_cycle = 4096;
  r.grants = 100000;
  r.delivered = 99999;
  r.violations_gb = 1;
  r.violations_gl = 2;
  r.violations_be = 3;
  r.windows = 17;
  r.faulted = true;
  const auto back = parse_record(r.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->verdict, Verdict::Fail);
  EXPECT_EQ(back->kind, "grant_mismatch");
  EXPECT_EQ(back->fail_cycle, 4096u);
  EXPECT_EQ(back->grants, 100000u);
  EXPECT_EQ(back->delivered, 99999u);
  EXPECT_EQ(back->violations_gb, 1u);
  EXPECT_EQ(back->violations_gl, 2u);
  EXPECT_EQ(back->violations_be, 3u);
  EXPECT_EQ(back->windows, 17u);
  EXPECT_TRUE(back->faulted);
}

TEST(CheckpointRecord, AnySingleBitFlipIsRejected) {
  Record r;
  r.type = Record::Type::Done;
  r.j = 5;
  r.kind = "x";
  const std::string line = r.encode();
  ASSERT_TRUE(parse_record(line).has_value());
  // Flip one bit at a time across the whole line (newline excluded): every
  // mutation must fail the checksum or the shape check.
  for (std::size_t i = 0; i + 1 < line.size(); ++i) {
    std::string mutated = line;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x04);
    EXPECT_FALSE(parse_record(mutated).has_value()) << "byte " << i;
  }
}

TEST(CheckpointRecord, TruncationsAreRejected) {
  Record r;
  r.j = 3;
  const std::string line = r.encode();
  for (std::size_t keep = 0; keep + 1 < line.size(); ++keep) {
    EXPECT_FALSE(parse_record(line.substr(0, keep)).has_value())
        << "kept " << keep << " bytes";
  }
}

// ----------------------------------------------------------------- journal

TEST_F(CampaignTest, JournalLoadReportsTornTailOffset) {
  const std::string path = dir() + "/shard.jsonl";
  Record a;
  a.j = 0;
  Record b;
  b.type = Record::Type::Done;
  b.j = 0;
  b.grants = 10;
  const std::string good = a.encode() + b.encode();
  {
    std::ofstream out(path, std::ios::binary);
    out << good << "{\"t\":\"d\",\"j\":1,\"a\":1,\"v\":\"ok";  // torn mid-write
  }
  const ShardState s = load_checkpoint(path);
  EXPECT_EQ(s.valid_bytes, good.size());
  EXPECT_EQ(s.corrupt_records, 1u);
  ASSERT_TRUE(s.is_done(0));
  EXPECT_EQ(s.attempts(0), 1u);
  EXPECT_FALSE(s.is_done(1));
}

TEST_F(CampaignTest, WriterTruncatesTornTailBeforeAppending) {
  const std::string path = dir() + "/shard.jsonl";
  Record a;
  a.j = 0;
  {
    std::ofstream out(path, std::ios::binary);
    out << a.encode() << "garbage that never got its newline";
  }
  const ShardState before = load_checkpoint(path);
  CheckpointWriter w;
  ASSERT_TRUE(w.open(path, before.valid_bytes));
  Record d;
  d.type = Record::Type::Done;
  d.j = 0;
  ASSERT_TRUE(w.append(d));
  w.close();
  // The torn bytes are gone; the journal is a clean two-record file.
  const ShardState after = load_checkpoint(path);
  EXPECT_EQ(after.corrupt_records, 0u);
  EXPECT_TRUE(after.is_done(0));
  EXPECT_EQ(slurp(path).size(), after.valid_bytes);
}

TEST_F(CampaignTest, CorruptedMiddleRecordDiscardsToLastGoodPrefix) {
  const std::string path = dir() + "/shard.jsonl";
  Record a;
  a.j = 0;
  Record b;
  b.j = 1;
  std::string second = b.encode();
  second[second.find("\"j\":1") + 4] = '2';  // body no longer matches its crc
  Record c;
  c.j = 2;
  {
    std::ofstream out(path, std::ios::binary);
    out << a.encode() << second << c.encode();
  }
  const ShardState s = load_checkpoint(path);
  // Only the prefix before the first bad record is trusted.
  EXPECT_EQ(s.valid_bytes, a.encode().size());
  EXPECT_GE(s.corrupt_records, 1u);
  EXPECT_EQ(s.attempts(0), 1u);
  EXPECT_EQ(s.attempts(2), 0u);
}

TEST_F(CampaignTest, MissingJournalIsEmptyState) {
  const ShardState s = load_checkpoint(dir() + "/nonexistent.jsonl");
  EXPECT_TRUE(s.units.empty());
  EXPECT_EQ(s.valid_bytes, 0u);
  EXPECT_EQ(s.corrupt_records, 0u);
}

TEST_F(CampaignTest, FirstDoneRecordWinsAndAttemptsAccumulate) {
  const std::string path = dir() + "/shard.jsonl";
  CheckpointWriter w;
  ASSERT_TRUE(w.open(path, 0));
  Record s1;
  s1.j = 4;
  s1.attempt = 1;
  ASSERT_TRUE(w.append(s1));
  Record s2 = s1;
  s2.attempt = 2;
  ASSERT_TRUE(w.append(s2));
  Record d;
  d.type = Record::Type::Done;
  d.j = 4;
  d.attempt = 2;
  d.grants = 123;
  ASSERT_TRUE(w.append(d));
  Record dup = d;
  dup.grants = 999;  // a duplicate must never change the merged verdict
  ASSERT_TRUE(w.append(dup));
  w.close();
  const ShardState s = load_checkpoint(path);
  EXPECT_EQ(s.attempts(4), 2u);
  ASSERT_TRUE(s.is_done(4));
  EXPECT_EQ(s.units.at(4).done->grants, 123u);
}

// ---------------------------------------------------------------- manifest

TEST(Manifest, SerializeParseRoundTrip) {
  Manifest m;
  m.base_seed = 42;
  m.scenarios = 17;
  m.shards = 5;
  m.grid = {parse_grid_point("default"), parse_grid_point("monitor+scalar")};
  m.max_attempts = 4;
  m.scenario_timeout_ms = 1234;
  m.throttle_ms = 9;
  m.planted = {{Plant::Kind::Hang, 3}, {Plant::Kind::Crash, 20}};
  const Manifest back = parse_manifest(m.serialize());
  EXPECT_EQ(back.base_seed, 42u);
  EXPECT_EQ(back.scenarios, 17u);
  EXPECT_EQ(back.shards, 5u);
  ASSERT_EQ(back.grid.size(), 2u);
  EXPECT_EQ(back.grid[0].label, "default");
  EXPECT_EQ(back.grid[1].label, "monitor+scalar");
  EXPECT_TRUE(back.grid[1].opts.monitor);
  EXPECT_EQ(back.grid[1].kernel, core::ArbKernel::Scalar);
  EXPECT_EQ(back.max_attempts, 4u);
  EXPECT_EQ(back.scenario_timeout_ms, 1234u);
  EXPECT_EQ(back.throttle_ms, 9u);
  ASSERT_EQ(back.planted.size(), 2u);
  EXPECT_EQ(back.planted[0].kind, Plant::Kind::Hang);
  EXPECT_EQ(back.planted[0].index, 3u);
  EXPECT_EQ(back.planted[1].kind, Plant::Kind::Crash);
  EXPECT_EQ(back.planted[1].index, 20u);
  // Identity is byte-stable: re-serialising the parse reproduces the bytes.
  EXPECT_EQ(back.serialize(), m.serialize());
}

TEST(Manifest, ShardRangesPartitionTheUnitSpace) {
  Manifest m;
  m.scenarios = 17;
  m.grid = {parse_grid_point("default"), parse_grid_point("scalar"),
            parse_grid_point("no-circuit")};
  m.shards = 7;
  std::vector<int> covered(m.total_units(), 0);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    EXPECT_LE(m.shard_begin(k), m.shard_end(k));
    if (k > 0) {
      EXPECT_EQ(m.shard_begin(k), m.shard_end(k - 1));
    }
    for (std::uint64_t j = m.shard_begin(k); j < m.shard_end(k); ++j) {
      ++covered[j];
    }
  }
  for (std::uint64_t j = 0; j < m.total_units(); ++j) {
    EXPECT_EQ(covered[j], 1) << "unit " << j;
  }
}

TEST(Manifest, MoreShardsThanUnitsLeavesEmptyTrailingShards) {
  Manifest m;
  m.scenarios = 3;
  m.grid = {parse_grid_point("default")};
  m.shards = 8;
  std::uint64_t nonempty = 0;
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    if (m.shard_begin(k) < m.shard_end(k)) ++nonempty;
    EXPECT_LE(m.shard_end(k), m.total_units());
  }
  EXPECT_GE(nonempty, 1u);
  EXPECT_EQ(m.shard_end(m.shards - 1), m.total_units());
}

TEST(Manifest, AdaptiveShardSizingHalvesTheTail) {
  // The last shards/4 shards carry half the weight of the head shards, so a
  // straggler that claims late claims less. The algebra must still be an
  // exact partition: begin(0)=0, begin(shards)=total, monotone, and every
  // tail shard within a unit of half a head shard.
  Manifest m;
  m.scenarios = 100000;
  m.grid = {parse_grid_point("default")};
  m.shards = 16;
  EXPECT_EQ(m.shard_begin(0), 0u);
  EXPECT_EQ(m.shard_begin(m.shards), m.total_units());
  std::uint64_t head_min = UINT64_MAX, head_max = 0;
  std::uint64_t tail_min = UINT64_MAX, tail_max = 0;
  const std::uint64_t tail = m.shards / 4;
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    EXPECT_LE(m.shard_begin(k), m.shard_begin(k + 1)) << "shard " << k;
    const std::uint64_t size = m.shard_end(k) - m.shard_begin(k);
    if (k < m.shards - tail) {
      head_min = std::min(head_min, size);
      head_max = std::max(head_max, size);
    } else {
      tail_min = std::min(tail_min, size);
      tail_max = std::max(tail_max, size);
    }
  }
  // Within-group sizes differ by at most one unit (integer rounding).
  EXPECT_LE(head_max - head_min, 1u);
  EXPECT_LE(tail_max - tail_min, 1u);
  // Tail shards are half-weight: half a head shard, up to rounding.
  EXPECT_LE(tail_max, head_min / 2 + 1);
  EXPECT_GE(tail_min + 1, head_max / 2);
}

TEST(Manifest, TinyShardCountsStayUniform) {
  // shards/4 == 0 below 4 shards: no tail group, equal split as before.
  for (const std::uint64_t shards : {1ull, 2ull, 3ull}) {
    Manifest m;
    m.scenarios = 999;
    m.grid = {parse_grid_point("default")};
    m.shards = shards;
    std::uint64_t min_size = UINT64_MAX, max_size = 0;
    for (std::uint64_t k = 0; k < m.shards; ++k) {
      const std::uint64_t size = m.shard_end(k) - m.shard_begin(k);
      min_size = std::min(min_size, size);
      max_size = std::max(max_size, size);
    }
    EXPECT_LE(max_size - min_size, 1u) << "shards=" << shards;
    EXPECT_EQ(m.shard_end(m.shards - 1), m.total_units());
  }
}

TEST(Manifest, SimdAndEngineGridTokensParse) {
  const GridPoint simd = parse_grid_point("simd");
  EXPECT_EQ(simd.kernel, core::ArbKernel::Simd);
  const GridPoint eng = parse_grid_point("engine=islip");
  EXPECT_EQ(eng.engine, arb::MatchKind::Islip);
  const GridPoint both = parse_grid_point("simd+engine=qps+monitor");
  EXPECT_EQ(both.kernel, core::ArbKernel::Simd);
  EXPECT_EQ(both.engine, arb::MatchKind::Qps);
  EXPECT_TRUE(both.opts.monitor);
  // Round-trips through the manifest identity like any other token.
  Manifest m = tiny_manifest();
  m.grid = {both};
  const Manifest back = parse_manifest(m.serialize());
  EXPECT_EQ(back.grid.at(0).kernel, core::ArbKernel::Simd);
  EXPECT_EQ(back.grid.at(0).engine, arb::MatchKind::Qps);
  EXPECT_THROW(parse_grid_point("engine=warp"), ConfigError);
  // A starving engine fails every unit by design; it is only a plant.
  EXPECT_THROW(parse_grid_point("engine=starve"), ConfigError);
  EXPECT_TRUE(parse_grid_point("monitor+sparse").sparse);
}

TEST(WorkUnit, EngineNoneForcesTheClassicPathAndDefaultKeepsTheGenerated) {
  // Scenarios 1, 3 and 6 of seed 1 are generated onto a matching engine.
  const GridPoint keep = parse_grid_point("default");
  const GridPoint none = parse_grid_point("engine=none");
  ASSERT_TRUE(none.engine.has_value());
  for (const std::uint64_t i : {1ull, 3ull, 6ull}) {
    const check::Scenario gen = check::generate_scenario(i, 1);
    ASSERT_NE(gen.matching_engine, arb::MatchKind::None) << "scenario " << i;
    EXPECT_EQ(unit_scenario(keep, 1, i).matching_engine, gen.matching_engine);
    EXPECT_EQ(unit_scenario(none, 1, i).matching_engine, arb::MatchKind::None);
  }
}

TEST(WorkUnit, ConfigErrorIsAFailedVerdictNotAnException) {
  check::Scenario s = check::generate_scenario(1, 1);  // generated on an engine
  s.packet_chaining = true;  // invalid under a matching engine
  const check::RunResult r = run_unit(parse_grid_point("default"), s);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.kind, "config_error");
  EXPECT_FALSE(r.detail.empty());
}

TEST(Manifest, UnitToGridAndScenarioMapping) {
  Manifest m;
  m.scenarios = 10;
  m.grid = {parse_grid_point("default"), parse_grid_point("monitor")};
  EXPECT_EQ(m.total_units(), 20u);
  EXPECT_EQ(m.grid_of(0), 0u);
  EXPECT_EQ(m.scenario_of(9), 9u);
  EXPECT_EQ(m.grid_of(10), 1u);
  EXPECT_EQ(m.scenario_of(10), 0u);
  EXPECT_EQ(m.planted_at(5), nullptr);
  m.planted = {{Plant::Kind::Crash, 5}};
  ASSERT_NE(m.planted_at(5), nullptr);
  EXPECT_EQ(m.planted_at(5)->kind, Plant::Kind::Crash);
}

TEST(Manifest, UnknownGridTokenThrows) {
  EXPECT_THROW(parse_grid_point("turbo"), ConfigError);
  EXPECT_THROW(parse_grid_point("monitor+turbo"), ConfigError);
  EXPECT_THROW(parse_grid_point(""), ConfigError);
}

TEST(Manifest, ValidationRejectsNonsense) {
  Manifest m = tiny_manifest();
  m.scenarios = 0;
  EXPECT_THROW(m.validate(), ConfigError);
  m = tiny_manifest();
  m.shards = 0;
  EXPECT_THROW(m.validate(), ConfigError);
  m = tiny_manifest();
  m.planted = {{Plant::Kind::Hang, m.total_units()}};  // out of range
  EXPECT_THROW(m.validate(), ConfigError);
  // Manifest integers are strict: no sign, space or junk, and in range.
  m = tiny_manifest();
  m.planted = {{Plant::Kind::Hang, 3}};
  const std::string good = m.serialize();
  ASSERT_NO_THROW((void)parse_manifest(good));
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  EXPECT_THROW((void)parse_manifest(with("\"index\":3", "\"index\":x")),
               ConfigError);  // would plant a hang at unit 0
  EXPECT_THROW((void)parse_manifest(with("\"max_attempts\":2",
                                         "\"max_attempts\":4294967297")),
               ConfigError);  // would wrap to 1
  EXPECT_THROW((void)parse_manifest(with("\"scenarios\":6",
                                         "\"scenarios\": -4")),
               ConfigError);  // would wrap to ~2^64 units
}

TEST(Manifest, ValidationRejectsAWrappingUnitCount) {
  // 2^63 scenarios x 2 grid points wraps total_units() to 0: a campaign
  // that would report green having judged nothing.
  Manifest m = tiny_manifest();
  m.grid = {parse_grid_point("default"), parse_grid_point("monitor")};
  m.scenarios = 9223372036854775808ULL;
  try {
    m.validate();
    ADD_FAILURE() << "validate() accepted a wrapping unit count";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("scenarios"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_manifest(m.serialize()), ConfigError);
  m.scenarios = UINT64_MAX / 2;  // the largest count that still fits
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.total_units() / m.grid.size(), m.scenarios);
}

TEST_F(CampaignTest, InitRefusesToReuseACampaignDirectory) {
  const Manifest m = tiny_manifest();
  const std::string d = dir() + "/c";
  init_campaign_dir(d, m);
  EXPECT_EQ(parse_manifest(slurp(d + "/manifest.json")).serialize(),
            m.serialize());
  EXPECT_THROW(init_campaign_dir(d, m), ConfigError);
  EXPECT_THROW(load_manifest(dir() + "/no-such-campaign"), ConfigError);
}

// ------------------------------------------------------------ claims/locks

TEST_F(CampaignTest, ShardClaimsAreExclusiveAndOrdered) {
  const Manifest m = tiny_manifest();  // 2 shards
  ShardClaim a;
  ShardClaim b;
  ShardClaim c;
  auto ka = claim_lowest_undone(dir(), m, a);
  auto kb = claim_lowest_undone(dir(), m, b);
  ASSERT_TRUE(ka.has_value());
  ASSERT_TRUE(kb.has_value());
  EXPECT_EQ(*ka, 0u);  // lowest first
  EXPECT_EQ(*kb, 1u);
  EXPECT_FALSE(claim_lowest_undone(dir(), m, c).has_value());  // all held
  a.release();
  EXPECT_EQ(claim_lowest_undone(dir(), m, c).value_or(99), 0u);  // reclaimable
}

// ------------------------------------------------- runner + resume + merge

TEST_F(CampaignTest, RunShardCompletesAndMergeAccountsEveryUnit) {
  const Manifest m = tiny_manifest();
  const std::string d = dir() + "/c";
  init_campaign_dir(d, m);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    EXPECT_EQ(run_shard(d, m, k), ShardOutcome::Completed);
  }
  EXPECT_TRUE(all_shards_done(d, m));
  const Report r = merge_checkpoints(d, m);
  EXPECT_EQ(r.total, m.total_units());
  EXPECT_EQ(r.completed, m.total_units());
  EXPECT_EQ(r.ok + r.failed + r.quarantined, r.completed);
  EXPECT_EQ(r.skipped, 0u);
  EXPECT_TRUE(r.complete());
  EXPECT_GT(r.grants, 0u);
}

TEST_F(CampaignTest, EngineGridPointsRunChainingScenariosClean) {
  // A forced matching engine is incompatible with packet chaining, so the
  // runner must strip the chaining knob from generated scenarios (exactly as
  // `ssq_fuzz --engine=` does) instead of letting every chaining scenario
  // die with a ConfigError and drain the attempt budget into quarantine.
  Manifest m = tiny_manifest();
  m.scenarios = 30;  // enough draws that some scenarios enable chaining
  m.grid = {parse_grid_point("simd+engine=qps")};
  const std::string d = dir() + "/engine";
  init_campaign_dir(d, m);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    ASSERT_EQ(run_shard(d, m, k), ShardOutcome::Completed);
  }
  const Report r = merge_checkpoints(d, m);
  EXPECT_EQ(r.completed, m.total_units());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_GT(r.grants, 0u);
}

TEST_F(CampaignTest, DrainedShardResumesToByteIdenticalReport) {
  const Manifest m = tiny_manifest();
  const std::string ref = dir() + "/ref";
  const std::string res = dir() + "/res";
  init_campaign_dir(ref, m);
  init_campaign_dir(res, m);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    ASSERT_EQ(run_shard(ref, m, k), ShardOutcome::Completed);
  }
  // Drain the other campaign after two units, mid-shard.
  int beats = 0;
  RunnerHooks draining;
  draining.beat = [&] { ++beats; };
  draining.drain = [&] { return beats >= 2; };
  ASSERT_EQ(run_shard(res, m, 0, draining), ShardOutcome::Drained);
  const Report partial = merge_checkpoints(res, m);
  EXPECT_GT(partial.skipped, 0u);
  EXPECT_FALSE(partial.complete());
  // Resume: only unfinished units run (done-record count ends exactly at
  // total — a re-run of a finished unit would append a duplicate).
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    ASSERT_EQ(run_shard(res, m, k), ShardOutcome::Completed);
  }
  std::uint64_t done_records = 0;
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    for (const auto& [j, unit] : load_checkpoint(ckpt_path(res, k)).units) {
      (void)j;
      if (unit.done.has_value()) ++done_records;
    }
  }
  EXPECT_EQ(done_records, m.total_units());
  EXPECT_EQ(render_report(merge_checkpoints(res, m), m),
            render_report(merge_checkpoints(ref, m), m));
}

TEST_F(CampaignTest, ForeignJournalRecordsAreDiscardedNotMerged) {
  // Shards partition the unit space, so a record in shard 0's journal for a
  // unit that shard 1 owns was never run by shard 0. It must count neither
  // as finished work nor against shard 1's own record, only as corrupt.
  Manifest m = tiny_manifest();
  m.scenarios = 4;
  ASSERT_EQ(m.shard_begin(1), 2u);  // shard 0: units 0-1, shard 1: 2-3
  const std::string d = dir() + "/c";
  init_campaign_dir(d, m);
  ASSERT_EQ(run_shard(d, m, 0), ShardOutcome::Completed);
  const ShardState before = load_checkpoint(ckpt_path(d, 0));
  CheckpointWriter w;
  ASSERT_TRUE(w.open(ckpt_path(d, 0), before.valid_bytes));
  Record foreign;
  foreign.j = 3;
  ASSERT_TRUE(w.append(foreign));
  foreign.type = Record::Type::Done;
  foreign.verdict = Verdict::Fail;
  foreign.kind = "foreign";
  ASSERT_TRUE(w.append(foreign));
  w.close();

  Report r = merge_checkpoints(d, m);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.failures.empty());
  ExecutionStats e;
  fold_journal_history(d, m, e);
  EXPECT_EQ(e.corrupt_records, before.corrupt_records + 2);
  EXPECT_EQ(e.retried, 0u);

  ASSERT_EQ(run_shard(d, m, 1), ShardOutcome::Completed);
  r = merge_checkpoints(d, m);
  EXPECT_EQ(r.completed, m.total_units());
  for (const Report::Incident& inc : r.failures) {
    EXPECT_NE(inc.kind, "foreign") << "unit " << inc.index;
  }
}

TEST_F(CampaignTest, ExhaustedAttemptsQuarantineWithReproAndCampaignGoesOn) {
  Manifest m = tiny_manifest();  // max_attempts = 2
  const std::string d = dir() + "/c";
  init_campaign_dir(d, m);
  // Fake the evidence of two crashed attempts on unit 1: start records with
  // no done record, exactly what a watchdog kill or SIGKILL leaves behind.
  const ShardState fresh = load_checkpoint(ckpt_path(d, 0));
  CheckpointWriter w;
  ASSERT_TRUE(w.open(ckpt_path(d, 0), fresh.valid_bytes));
  for (std::uint32_t attempt = 1; attempt <= m.max_attempts; ++attempt) {
    Record s;
    s.j = 1;
    s.attempt = attempt;
    ASSERT_TRUE(w.append(s));
  }
  w.close();
  ASSERT_EQ(run_shard(d, m, 0), ShardOutcome::Completed);
  const ShardState s = load_checkpoint(ckpt_path(d, 0));
  ASSERT_TRUE(s.is_done(1));
  EXPECT_EQ(s.units.at(1).done->verdict, Verdict::Quarantined);
  // The poisoned repro exists and replays: it is a valid scenario file with
  // the quarantine trailer.
  const std::string repro =
      d + "/poisoned-" + std::to_string(m.base_seed) + "-1.scenario";
  ASSERT_TRUE(fs::exists(repro));
  const std::string body = slurp(repro);
  EXPECT_NE(body.find("# quarantined: reason=unresponsive"), std::string::npos);
  EXPECT_NE(body.find("attempts=2"), std::string::npos);
  // Every other unit still ran; the merge counts exactly one quarantine.
  const Report r = merge_checkpoints(d, m);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.ok, m.shard_end(0) - m.shard_begin(0) - 1);
  ASSERT_EQ(r.quarantines.size(), 1u);
  EXPECT_EQ(r.quarantines[0].index, 1u);
  EXPECT_EQ(r.quarantines[0].kind, "unresponsive");
}

TEST_F(CampaignTest, PoisonedReproCarriesTheGridPointOverrides) {
  // The quarantine repro must be the program the unit ran, so that
  // `ssq_fuzz --replay` of it runs the same thing: the engine override (and
  // its chaining strip) and the sparse derate are part of the scenario.
  Manifest m = tiny_manifest();  // max_attempts = 2
  m.grid = {parse_grid_point("engine=islip+sparse")};
  const std::string d = dir() + "/c";
  init_campaign_dir(d, m);
  const ShardState fresh = load_checkpoint(ckpt_path(d, 0));
  CheckpointWriter w;
  ASSERT_TRUE(w.open(ckpt_path(d, 0), fresh.valid_bytes));
  for (std::uint32_t attempt = 1; attempt <= m.max_attempts; ++attempt) {
    Record s;
    s.j = 1;
    s.attempt = attempt;
    ASSERT_TRUE(w.append(s));
  }
  w.close();
  ASSERT_EQ(run_shard(d, m, 0), ShardOutcome::Completed);
  ASSERT_EQ(merge_checkpoints(d, m).quarantined, 1u);
  const check::Scenario poisoned = check::load_scenario(
      d + "/poisoned-" + std::to_string(m.base_seed) + "-1.scenario");
  EXPECT_EQ(poisoned.matching_engine, arb::MatchKind::Islip);
  EXPECT_FALSE(poisoned.packet_chaining);
  const check::Scenario gen = check::generate_scenario(1, m.base_seed);
  EXPECT_EQ(poisoned.cycles, gen.cycles * 8);
  ASSERT_EQ(poisoned.flows.size(), gen.flows.size());
  for (std::size_t f = 0; f < gen.flows.size(); ++f) {
    EXPECT_EQ(poisoned.flows[f].inject_rate, gen.flows[f].inject_rate * 0.05);
  }
}

TEST_F(CampaignTest, RenderReportIsDeterministic) {
  const Manifest m = tiny_manifest();
  const std::string d = dir() + "/c";
  init_campaign_dir(d, m);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    ASSERT_EQ(run_shard(d, m, k), ShardOutcome::Completed);
  }
  const std::string once = render_report(merge_checkpoints(d, m), m);
  const std::string twice = render_report(merge_checkpoints(d, m), m);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("\"schema\":\"ssq.campaign.v1\""), std::string::npos);
  EXPECT_NE(once.find("\"resumable\":false"), std::string::npos);
}

// -------------------------------------------------------------- atomic file

TEST_F(CampaignTest, AtomicWriteLeavesNoTempFilesBehind) {
  const std::string path = dir() + "/out.json";
  ASSERT_TRUE(write_file_atomic(path, "first"));
  ASSERT_TRUE(write_file_atomic(path, "second"));  // atomic replace
  EXPECT_EQ(slurp(path), "second");
  std::uint64_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // no .tmp.* litter
  EXPECT_FALSE(write_file_atomic(dir() + "/no/such/dir/out.json", "x"));
}

}  // namespace
}  // namespace ssq::campaign
