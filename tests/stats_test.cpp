// Tests for src/stats: streaming moments, histograms/percentiles, latency
// recording, throughput windows, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "sim/rng.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/histogram.hpp"
#include "stats/latency.hpp"
#include "stats/streaming.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"
#include "stats/throughput.hpp"

namespace ssq::stats {
namespace {

TEST(StreamingTest, EmptyIsSane) {
  Streaming s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(StreamingTest, KnownMoments) {
  Streaming s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingTest, SampleVarianceUsesNMinusOne) {
  Streaming s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 2.0);
}

TEST(StreamingTest, MergeMatchesSinglePass) {
  Rng rng(5);
  Streaming all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100.0;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingTest, MergeWithEmpty) {
  Streaming a, b;
  a.add(1.0);
  a.merge(b);  // merging empty is a no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(HistogramTest, BinningAndOverflow) {
  Histogram h(10.0, 4);  // bins [0,10) [10,20) [20,30) [30,40) + overflow
  h.add(0.0);
  h.add(9.99);
  h.add(10.0);
  h.add(35.0);
  h.add(40.0);    // overflow
  h.add(1000.0);  // overflow
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_EQ(h.bin_count(3), 1u);
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1000.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h(1.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.9), 90.0, 1.0);
  EXPECT_EQ(h.percentile(0.0), 0.0);
}

TEST(HistogramTest, PercentileFallsBackToMaxInOverflow) {
  Histogram h(1.0, 2);
  h.add(100.0);
  h.add(200.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 200.0);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a(2.0, 8), b(2.0, 8);
  a.add(1.0);
  b.add(1.5);
  b.add(15.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bin_count(0), 2u);
  EXPECT_DOUBLE_EQ(a.max_seen(), 15.0);
}

TEST(LatencyRecorderTest, PerFlow) {
  LatencyRecorder rec(2);
  rec.record(0, 10.0);
  rec.record(0, 20.0);
  rec.record(1, 100.0);
  EXPECT_EQ(rec.num_flows(), 2u);
  EXPECT_DOUBLE_EQ(rec.flow_summary(0).mean(), 15.0);
  EXPECT_DOUBLE_EQ(rec.flow_summary(1).mean(), 100.0);
  EXPECT_EQ(rec.flow_histogram(0).total(), 2u);
  EXPECT_EQ(rec.flow_histogram(1).total(), 1u);
}

TEST(LatencyRecorderTest, ResetClearsEverything) {
  LatencyRecorder rec(1);
  rec.record(0, 5.0);
  rec.reset();
  EXPECT_EQ(rec.flow_summary(0).count(), 0u);
  EXPECT_EQ(rec.flow_histogram(0).total(), 0u);
}

TEST(ThroughputMeterTest, WindowedRates) {
  ThroughputMeter m(2);
  m.open_window(100);
  // Flits before the window are ignored.
  m.record_flit(0, 50);
  for (Cycle c = 100; c < 200; ++c) m.record_flit(0, c);
  for (Cycle c = 100; c < 150; ++c) m.record_flit(1, c);
  m.close_window(200);
  EXPECT_EQ(m.window_cycles(), 100u);
  EXPECT_DOUBLE_EQ(m.rate(0), 1.0);
  EXPECT_DOUBLE_EQ(m.rate(1), 0.5);
  EXPECT_DOUBLE_EQ(m.total_rate(), 1.5);
}

TEST(ThroughputMeterTest, ReopenResetsCounts) {
  ThroughputMeter m(1);
  m.open_window(0);
  m.record_flit(0, 5);
  m.close_window(10);
  EXPECT_EQ(m.flits(0), 1u);
  m.open_window(10);
  m.close_window(20);
  EXPECT_EQ(m.flits(0), 0u);
}

TEST(RateSeriesTest, WindowsCloseOnRoll) {
  RateSeries rs(2, 10);
  for (Cycle c = 0; c < 10; ++c) rs.record_flit(0, c);  // 1.0 flits/cycle
  rs.record_flit(1, 5);
  rs.roll_to(20);  // closes windows [0,10) and [10,20)
  ASSERT_EQ(rs.num_windows(), 2u);
  EXPECT_DOUBLE_EQ(rs.series(0)[0], 1.0);
  EXPECT_DOUBLE_EQ(rs.series(1)[0], 0.1);
  EXPECT_DOUBLE_EQ(rs.series(0)[1], 0.0);
}

TEST(RateSeriesTest, RecordRollsAutomatically) {
  RateSeries rs(1, 4);
  rs.record_flit(0, 0);
  rs.record_flit(0, 9);  // crossing two boundaries closes two windows
  ASSERT_EQ(rs.num_windows(), 2u);
  EXPECT_DOUBLE_EQ(rs.series(0)[0], 0.25);
  EXPECT_DOUBLE_EQ(rs.series(0)[1], 0.0);
}

TEST(RateSeriesTest, ConvergedAtFindsStableRun) {
  RateSeries rs(1, 1);
  // Rates: 0, 0, 0.9, 1.0, 1.1, 1.0, 0  (target 1.0 +/- 0.15, hold 3)
  const double rates[] = {0, 0, 0.9, 1.0, 1.1, 1.0, 0};
  Cycle now = 0;
  for (double r : rates) {
    if (r > 0.5) rs.record_flit(0, now);  // 1 flit per 1-cycle window ~ rate
    ++now;
    rs.roll_to(now);
  }
  // With 1-cycle windows the recorded rates are 0/0/1/1/1/1/0.
  EXPECT_EQ(rs.converged_at(0, 1.0, 0.15, 0, 3), 2u);
  EXPECT_EQ(rs.converged_at(0, 1.0, 0.15, 5, 3), rs.num_windows());
}

TEST(ThroughputMeterTest, UnrecordRetractsGoodput) {
  ThroughputMeter m(2);
  m.open_window(0);
  for (Cycle c = 0; c < 10; ++c) m.record_flit(0, c);
  m.unrecord_flits(0, 4);   // aborted transfer
  m.unrecord_flits(1, 99);  // nothing recorded: clamps at zero
  m.close_window(10);
  EXPECT_EQ(m.flits(0), 6u);
  EXPECT_EQ(m.flits(1), 0u);
  EXPECT_DOUBLE_EQ(m.total_rate(), 0.6);
}

TEST(AsciiPlotTest, RendersSeriesAndLegend) {
  AsciiPlot plot("demo", 8);
  plot.add_series("up", {1.0, 2.0, 3.0, 4.0}, 'u');
  plot.add_series("down", {4.0, 3.0, 2.0, 1.0}, 'd');
  plot.x_labels("left", "right");
  std::ostringstream os;
  plot.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("-- demo --"), std::string::npos);
  EXPECT_NE(out.find('u'), std::string::npos);
  EXPECT_NE(out.find('d'), std::string::npos);
  EXPECT_NE(out.find("[u] up"), std::string::npos);
  EXPECT_NE(out.find("left"), std::string::npos);
  EXPECT_NE(out.find("right"), std::string::npos);
}

TEST(AsciiPlotTest, LogScaleSpansDecades) {
  AsciiPlot plot("log", 8);
  plot.add_series("s", {1.0, 10.0, 100.0, 1000.0}, '*');
  std::ostringstream os;
  plot.render(os, /*log_y=*/true);
  // Top label ~1000, bottom ~1.
  EXPECT_NE(os.str().find("1000.0"), std::string::npos);
  EXPECT_NE(os.str().find("(log y)"), std::string::npos);
}

TEST(AsciiPlotDeathTest, LogScaleRejectsNonPositive) {
  AsciiPlot plot("bad", 8);
  plot.add_series("s", {0.0, 1.0}, '*');
  std::ostringstream os;
  EXPECT_DEATH(plot.render(os, true), "log-y");
}

TEST(TableTest, AsciiRendering) {
  Table t("demo");
  t.header({"name", "value"});
  t.row().cell("alpha").cell(1.5, 1);
  t.row().cell("b").cell(std::uint64_t{42});
  std::ostringstream os;
  t.render_ascii(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, CsvQuoting) {
  Table t;
  t.header({"a", "b"});
  t.row().cell("x,y").cell("he said \"hi\"");
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, WantCsvFlag) {
  const char* argv1[] = {"prog", "--csv"};
  const char* argv2[] = {"prog"};
  EXPECT_TRUE(want_csv(2, const_cast<char**>(argv1)));
  EXPECT_FALSE(want_csv(1, const_cast<char**>(argv2)));
}

// ---- randomized property tests -------------------------------------------
//
// Merge-order invariance and quantile monotonicity must hold for ANY input,
// not just the hand-picked samples above; these sweeps draw random sample
// sets from seeded Rngs so failures replay exactly.

TEST(StreamingProperty, MergeIsOrderAndChunkingInvariant) {
  Rng rng(900);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(400);
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.uniform() * 1000.0;

    Streaming whole;
    for (double x : xs) whole.add(x);

    // Split into k chunks, accumulate separately, merge in a random order.
    const std::size_t k = 1 + rng.below(5);
    std::vector<Streaming> parts(k);
    for (std::size_t i = 0; i < n; ++i) parts[rng.below(k)].add(xs[i]);
    std::vector<std::size_t> order(k);
    for (std::size_t i = 0; i < k; ++i) order[i] = i;
    for (std::size_t i = k; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    Streaming merged;
    for (std::size_t i : order) merged.merge(parts[i]);

    ASSERT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9 * (1.0 + whole.mean()));
    EXPECT_NEAR(merged.variance(), whole.variance(),
                1e-6 * (1.0 + whole.variance()));
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  }
}

TEST(HistogramProperty, MergeIsOrderInvariantAndMatchesSinglePass) {
  Rng rng(901);
  for (int trial = 0; trial < 20; ++trial) {
    const double width = 0.5 + rng.uniform() * 4.0;
    const std::size_t bins = 4 + rng.below(60);
    Histogram whole(width, bins);
    Histogram a(width, bins), b(width, bins), c(width, bins);
    const std::size_t n = 1 + rng.below(600);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.uniform() * width * static_cast<double>(bins) * 1.5;
      whole.add(x);
      (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(x);
    }
    // b <- a then c, against c <- b then a: different orders, same result.
    Histogram ab = b;
    ab.merge(a);
    ab.merge(c);
    Histogram cb = c;
    cb.merge(b);
    cb.merge(a);
    ASSERT_EQ(ab.total(), whole.total());
    ASSERT_EQ(cb.total(), whole.total());
    for (std::size_t i = 0; i <= bins; ++i) {
      EXPECT_EQ(ab.bin_count(i), whole.bin_count(i)) << "bin " << i;
      EXPECT_EQ(cb.bin_count(i), whole.bin_count(i)) << "bin " << i;
    }
    EXPECT_DOUBLE_EQ(ab.max_seen(), whole.max_seen());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(ab.percentile(q), whole.percentile(q)) << "q=" << q;
    }
  }
}

TEST(HistogramProperty, QuantilesAreMonotoneInQ) {
  Rng rng(902);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram h(1.0 + rng.uniform() * 3.0, 4 + rng.below(40));
    const std::size_t n = 1 + rng.below(500);
    double true_max = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // Heavy tail so some samples land in the overflow bin.
      const double x = rng.uniform() * 50.0 / (1.0 - 0.98 * rng.uniform());
      h.add(x);
      true_max = std::max(true_max, x);
    }
    double prev = -1.0;
    for (int step = 0; step <= 100; ++step) {
      const double q = static_cast<double>(step) / 100.0;
      const double v = h.percentile(q);
      EXPECT_GE(v, prev) << "percentile not monotone at q=" << q;
      // In-bin interpolation may overshoot the true max by at most one bin.
      EXPECT_LE(v, true_max + h.bin_width() + 1e-9)
          << "percentile above the bin holding the true max";
      prev = v;
    }
    if (h.overflow_count() > 0) {
      // Queries resolving in the unbounded overflow bin report the true max.
      EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max_seen());
    }
  }
}

TEST(StreamingProperty, QuantileBracketsMeanAndExtremes) {
  // mean within [min, max], stddev >= 0, and Welford never goes negative on
  // adversarially similar values (catastrophic-cancellation guard).
  Rng rng(903);
  for (int trial = 0; trial < 20; ++trial) {
    Streaming s;
    const double base = 1e9;
    const std::size_t n = 2 + rng.below(200);
    for (std::size_t i = 0; i < n; ++i) s.add(base + rng.uniform() * 1e-3);
    EXPECT_GE(s.mean(), s.min());
    EXPECT_LE(s.mean(), s.max());
    EXPECT_GE(s.variance(), 0.0);
    EXPECT_GE(s.sample_variance(), s.variance());
  }
}

}  // namespace
}  // namespace ssq::stats
