// Strict option-value parsing shared by every tool (tools/cli.hpp).
#include <gtest/gtest.h>

#include <cstdint>

#include "cli.hpp"
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

}  // namespace
}  // namespace ssq
