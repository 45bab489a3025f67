// Observability subsystem: event tracing, JSON emission, metrics registry,
// probe fast paths, snapshot sampling, and an end-to-end trace check that
// every delivered packet appears as create/grant/deliver in the Chrome sink.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "switch/crossbar.hpp"
#include "switch/observe.hpp"
#include "traffic/workload.hpp"

namespace ssq {
namespace {

// ---------------------------------------------------------------- JSON text

std::string escaped(std::string_view s) {
  std::string out;
  obs::json_escape_to(s, out);
  return out;
}

TEST(ObsJson, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(escaped("plain"), "plain");
  EXPECT_EQ(escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(escaped("tab\there"), "tab\\there");
  EXPECT_EQ(escaped("nl\n"), "nl\\n");
  EXPECT_EQ(escaped("cr\r"), "cr\\r");
}

TEST(ObsJson, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(escaped(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(escaped(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(escaped(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(ObsJson, MultiByteUtf8PassesThrough) {
  EXPECT_EQ(escaped("\xc3\xa9"), "\xc3\xa9");  // é
}

TEST(ObsJson, QuoteWrapsAndEscapes) {
  EXPECT_EQ(obs::json_quote("a\"b"), "\"a\\\"b\"");
}

TEST(ObsJson, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(obs::json_number(std::uint64_t{42}), "42");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(1.0 / 0.0 * 1e308), "null");
}

// A minimal JSON syntax checker — enough to assert emitted files parse.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(ObsJson, CheckerSanity) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,"x\"y",null,true]})").valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").valid());
  EXPECT_FALSE(JsonChecker(R"([1,)").valid());
}

// ------------------------------------------------------------------ tracer

obs::Event make_event(Cycle t, obs::EventKind kind) {
  obs::Event e;
  e.cycle = t;
  e.kind = kind;
  e.cls = TrafficClass::GuaranteedBandwidth;
  e.input = 1;
  e.output = 2;
  e.flow = 3;
  e.packet = 4;
  e.length = 8;
  return e;
}

TEST(ObsTracer, PreservesEventOrder) {
  obs::CollectSink sink;
  obs::Tracer tracer(sink);
  tracer.emit(make_event(10, obs::EventKind::PacketCreated));
  tracer.emit(make_event(10, obs::EventKind::PacketBuffered));
  tracer.emit(make_event(12, obs::EventKind::Grant));
  tracer.emit(make_event(21, obs::EventKind::Delivered));
  ASSERT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.events()[0].kind, obs::EventKind::PacketCreated);
  EXPECT_EQ(sink.events()[1].kind, obs::EventKind::PacketBuffered);
  EXPECT_EQ(sink.events()[2].kind, obs::EventKind::Grant);
  EXPECT_EQ(sink.events()[3].kind, obs::EventKind::Delivered);
  for (std::size_t i = 1; i < sink.events().size(); ++i) {
    EXPECT_LE(sink.events()[i - 1].cycle, sink.events()[i].cycle);
  }
  EXPECT_EQ(tracer.emitted(), 4u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, LimitCountsDropped) {
  obs::CollectSink sink;
  obs::Tracer tracer(sink, 2);
  for (Cycle t = 0; t < 5; ++t) {
    tracer.emit(make_event(t, obs::EventKind::Request));
  }
  EXPECT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(tracer.emitted(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(ObsTracer, ZeroLimitRecordsNothing) {
  obs::CollectSink sink;
  obs::Tracer tracer(sink, 0);
  tracer.emit(make_event(0, obs::EventKind::Grant));
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(ObsTracer, JsonlLinesAreValidJson) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  obs::Tracer tracer(sink);
  tracer.emit(make_event(5, obs::EventKind::Grant));
  tracer.emit(make_event(6, obs::EventKind::Delivered));
  tracer.finish();
  std::istringstream lines(os.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, 2);
}

TEST(ObsTracer, ChromeSinkEmitsValidJsonEvenWhenEmpty) {
  std::ostringstream os;
  {
    obs::ChromeTraceSink sink(os, 4);
    obs::Tracer tracer(sink);
  }  // dtor calls finish()
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("traceEvents"), std::string::npos);
}

// ----------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  const auto c = reg.counter("a.count");
  const auto g = reg.gauge("a.level");
  reg.add(c);
  reg.add(c, 4);
  reg.set(g, 2.5);
  EXPECT_EQ(reg.value(c), 5u);
  EXPECT_EQ(reg.value(g), 2.5);
  EXPECT_EQ(reg.counter_value("a.count"), 5u);
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
}

TEST(ObsMetrics, RegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  const auto c1 = reg.counter("same");
  const auto c2 = reg.counter("same");
  EXPECT_EQ(c1.idx, c2.idx);
  reg.add(c1);
  reg.add(c2);
  EXPECT_EQ(reg.value(c1), 2u);
  EXPECT_EQ(reg.num_counters(), 1u);
}

TEST(ObsMetrics, HistogramBucketEdges) {
  obs::MetricsRegistry reg;
  const auto h = reg.histogram("lat", /*bin_width=*/8.0, /*num_bins=*/4);
  reg.observe(h, 0.0);     // bin 0: [0, 8)
  reg.observe(h, 7.999);   // bin 0
  reg.observe(h, 8.0);     // bin 1: [8, 16)
  reg.observe(h, 31.999);  // bin 3: [24, 32)
  reg.observe(h, 32.0);    // overflow
  reg.observe(h, 1000.0);  // overflow
  const auto& data = reg.data(h);
  EXPECT_EQ(data.bin_count(0), 2u);
  EXPECT_EQ(data.bin_count(1), 1u);
  EXPECT_EQ(data.bin_count(2), 0u);
  EXPECT_EQ(data.bin_count(3), 1u);
  EXPECT_EQ(data.overflow_count(), 2u);
  EXPECT_EQ(data.total(), 6u);
  EXPECT_EQ(data.max_seen(), 1000.0);
}

TEST(ObsMetrics, MergeAddsCountersAndMergesHistograms) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.add(a.counter("shared"), 3);
  b.add(b.counter("shared"), 4);
  b.add(b.counter("only.b"), 7);
  a.set(a.gauge("g"), 1.0);
  b.set(b.gauge("g"), 9.0);
  a.observe(a.histogram("h", 1.0, 4), 2.5);
  b.observe(b.histogram("h", 1.0, 4), 2.5);

  a.merge(b);
  EXPECT_EQ(a.counter_value("shared"), 7u);
  EXPECT_EQ(a.counter_value("only.b"), 7u);
  EXPECT_EQ(a.value(a.gauge("g")), 9.0);  // gauge takes the merged-in value
  EXPECT_EQ(a.data(a.histogram("h", 1.0, 4)).total(), 2u);
  EXPECT_EQ(a.data(a.histogram("h", 1.0, 4)).bin_count(2), 2u);
}

TEST(ObsMetrics, WriteJsonParses) {
  obs::MetricsRegistry reg;
  reg.add(reg.counter("c\"tricky"), 1);
  reg.set(reg.gauge("g"), 0.25);
  reg.observe(reg.histogram("h", 2.0, 3), 5.0);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// ------------------------------------------------------------------- probe

traffic::Workload two_flow_workload() {
  traffic::Workload w(4);
  for (InputId i = 0; i < 2; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 0;
    f.cls = TrafficClass::GuaranteedBandwidth;
    f.reserved_rate = 0.4;
    f.len_min = f.len_max = 4;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.5;
    w.add_flow(f);
  }
  return w;
}

sw::SwitchConfig small_config() {
  sw::SwitchConfig c;
  c.radix = 4;
  c.seed = 7;
  return c;
}

TEST(ObsProbe, WithoutTracerCountsMetricsOnly) {
  sw::CrossbarSwitch sim(small_config(), two_flow_workload());
  obs::SwitchProbe probe(4);
  sim.attach_probe(&probe);
  sim.run(2000);
  const auto& m = probe.metrics();
  EXPECT_GT(m.counter_value("switch.packets.created"), 0u);
  EXPECT_GT(m.counter_value("arb.grants"), 0u);
  EXPECT_GT(m.counter_value("switch.delivered.packets"), 0u);
  EXPECT_EQ(probe.tracer(), nullptr);
}

TEST(ObsProbe, DetachedSwitchRecordsNothing) {
  sw::CrossbarSwitch sim(small_config(), two_flow_workload());
  sim.run(2000);  // no probe attached: the null fast path
  EXPECT_EQ(sim.probe(), nullptr);
  EXPECT_GT(sim.delivered_packets(0), 0u);  // traffic still flows
}

TEST(ObsProbe, GrantCountMatchesPerOutputSum) {
  sw::CrossbarSwitch sim(small_config(), two_flow_workload());
  obs::SwitchProbe probe(4);
  sim.attach_probe(&probe);
  sim.run(3000);
  std::uint64_t per_output = 0;
  for (OutputId o = 0; o < 4; ++o) per_output += probe.grants_for_output(o);
  EXPECT_EQ(per_output, probe.metrics().counter_value("arb.grants"));
}

// ---------------------------------------------------------------- sampling

TEST(ObsSnapshot, SamplesAtIntervalBoundaries) {
  sw::CrossbarSwitch sim(small_config(), two_flow_workload());
  obs::SwitchProbe probe(4);
  sim.attach_probe(&probe);
  obs::SnapshotSampler sampler(4, 500);
  sw::run_sampled(sim, 2600, sampler);
  EXPECT_EQ(sim.now(), 2600u);
  EXPECT_EQ(sampler.num_samples(), 5u);  // 500,1000,...,2500
  std::ostringstream os;
  sampler.write_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// -------------------------------------------------------------- end-to-end

TEST(ObsEndToEnd, ChromeTraceCoversEveryDeliveredPacket) {
  std::ostringstream os;
  std::uint64_t delivered = 0;
  {
    sw::CrossbarSwitch sim(small_config(), two_flow_workload());
    obs::SwitchProbe probe(4);
    obs::ChromeTraceSink sink(os, 4);
    obs::Tracer tracer(sink);
    probe.set_tracer(&tracer);
    sim.attach_probe(&probe);
    sim.run(3000);
    for (FlowId f = 0; f < 2; ++f) delivered += sim.delivered_packets(f);
    EXPECT_GT(delivered, 0u);

    // Cross-check the collected metrics against the simulator's own stats.
    EXPECT_EQ(probe.metrics().counter_value("switch.delivered.packets"),
              delivered);
    tracer.finish();
  }
  const std::string trace = os.str();
  EXPECT_TRUE(JsonChecker(trace).valid());

  auto count = [&trace](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + needle.size())) {
      ++n;
    }
    return n;
  };
  // Every delivered packet has a create instant, a grant instant, and a
  // B/E transfer pair ("deliver" closes the slice).
  EXPECT_GE(count("\"ev\":\"create\""), delivered);
  EXPECT_GE(count("\"ev\":\"grant\""), delivered);
  EXPECT_EQ(count("\"ev\":\"deliver\""), delivered);
  EXPECT_EQ(count("\"ph\":\"E\""), delivered);
}

TEST(ObsEndToEnd, CollectSinkSeesMonotoneCyclesFromLiveSwitch) {
  sw::CrossbarSwitch sim(small_config(), two_flow_workload());
  obs::SwitchProbe probe(4);
  obs::CollectSink sink;
  obs::Tracer tracer(sink);
  probe.set_tracer(&tracer);
  sim.attach_probe(&probe);
  sim.run(1500);
  ASSERT_FALSE(sink.events().empty());
  // TransferStart is stamped with the (future) first-flit cycle; everything
  // else is emitted with the current cycle and must be non-decreasing.
  Cycle prev = 0;
  for (const auto& e : sink.events()) {
    if (e.kind == obs::EventKind::TransferStart) continue;
    EXPECT_LE(prev, e.cycle);
    prev = e.cycle;
  }
}

}  // namespace
}  // namespace ssq
