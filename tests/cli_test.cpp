// Strict option-value parsing shared by every tool (tools/cli.hpp), and the
// argv check every bench binary runs (bench/common.hpp, BenchReport).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cli.hpp"
#include "common.hpp"
#include "exec/thread_pool.hpp"
#include "sim/error.hpp"

namespace ssq {
namespace {

TEST(Cli, OptValueMatchesOnlyTheExactKey) {
  EXPECT_EQ(cli::opt_value("--seed=7", "--seed"), "7");
  EXPECT_EQ(cli::opt_value("--seed", "--seed"), "");
  EXPECT_FALSE(cli::opt_value("--seeds=7", "--seed").has_value());
  EXPECT_FALSE(cli::opt_value("--jobs=7", "--seed").has_value());
}

TEST(Cli, ParseUintAcceptsOnlyPlainDigitsThatFit) {
  EXPECT_EQ(cli::parse_uint<std::uint64_t>("0", "--n"), 0u);
  EXPECT_EQ(cli::parse_uint<std::uint64_t>("18446744073709551615", "--n"),
            UINT64_MAX);
  for (const char* bad : {"-1", "+5", " 5", "5 ", "5x", "", "0x10",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)cli::parse_uint<std::uint64_t>(bad, "--n"),
                 ConfigError)
        << "'" << bad << "'";
  }
  EXPECT_THROW((void)cli::parse_uint<std::uint32_t>("4294967296", "--n"),
               ConfigError);
}

TEST(Cli, ParseDoubleAndRateRejectNonFiniteAndGarbage) {
  EXPECT_DOUBLE_EQ(cli::parse_double("0.25", "--x"), 0.25);
  EXPECT_DOUBLE_EQ(cli::parse_double("-2e3", "--x"), -2000.0);
  EXPECT_DOUBLE_EQ(cli::parse_rate("1", "--r"), 1.0);
  for (const char* bad : {"", " 1", "+1", "1x", "nan", "inf", "fast"}) {
    EXPECT_THROW((void)cli::parse_double(bad, "--x"), ConfigError)
        << "'" << bad << "'";
  }
  EXPECT_THROW((void)cli::parse_rate("1.5", "--r"), ConfigError);
  EXPECT_THROW((void)cli::parse_rate("-0.1", "--r"), ConfigError);
}

TEST(Cli, ParseJobsMapsZeroToHardwareThreadsAndCapsTheCount) {
  // Parser only: nothing here starts a thread.
  EXPECT_EQ(cli::parse_jobs("1", "--jobs"), 1u);
  EXPECT_EQ(cli::parse_jobs("512", "--jobs"), 512u);
  EXPECT_EQ(cli::parse_jobs("0", "--jobs"),
            exec::ThreadPool::hardware_threads());
  for (const char* bad : {"513", "4294967295", "4294967296", "-1", "", "2x"}) {
    EXPECT_THROW((void)cli::parse_jobs(bad, "--jobs"), ConfigError)
        << "'" << bad << "'";
  }
  try {
    (void)cli::parse_jobs("100000", "--workers");
    ADD_FAILURE() << "--workers=100000 was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--workers"), std::string::npos)
        << e.what();
  }
}

TEST(BenchReportTest, AcceptsItsOwnAndTheDeclaredOptions) {
  char prog[] = "bench";
  char csv[] = "--csv";
  char jobs[] = "--jobs=3";
  char quick[] = "--quick";
  char* argv[] = {prog, csv, jobs, quick};
  const bench::BenchReport r("t", 4, argv, {"--jobs=", "--quick"});
  EXPECT_TRUE(r.csv());
  EXPECT_EQ(r.jobs(), 3u);
}

TEST(BenchReportDeathTest, AnyOtherOptionExitsTwoNamingIt) {
  char prog[] = "bench";
  char typo[] = "--jsno";
  char jobs[] = "--jobs=2";
  char quick_value[] = "--quick=1";
  char too_many[] = "--jobs=513";
  char* a1[] = {prog, typo};
  EXPECT_EXIT({ bench::BenchReport r("t", 2, a1); },
              testing::ExitedWithCode(2), "unknown option '--jsno'");
  char* a2[] = {prog, jobs};  // this bench reads no --jobs
  EXPECT_EXIT({ bench::BenchReport r("t", 2, a2); },
              testing::ExitedWithCode(2), "unknown option '--jobs=2'");
  char* a3[] = {prog, quick_value};
  EXPECT_EXIT({ bench::BenchReport r("t", 2, a3, {"--quick"}); },
              testing::ExitedWithCode(2), "unknown option '--quick=1'");
  char* a4[] = {prog, too_many};
  EXPECT_EXIT({ bench::BenchReport r("t", 2, a4, {"--jobs="}); },
              testing::ExitedWithCode(2), "--jobs too large");
}

}  // namespace
}  // namespace ssq
