// Micro-benchmarks (google-benchmark) for the arbitration hot paths: one
// behavioural SSVC pick+grant, one bit-level circuit arbitration, and the
// baseline arbiters, across radices — plus whole-switch stepping with the
// observability probe off/metrics-only/tracing, so the obs overhead shows
// up as items_per_second = simulated cycles per wall-clock second. These
// quantify simulator cost per modelled cycle (methodological, not a paper
// table). `--benchmark_out=BENCH_micro_arbitration.json
// --benchmark_out_format=json` writes the native google-benchmark report.
// It keeps only what the repository benchmark (perf/) cannot express:
// per-arbitration micro costs, the radix 8/16/32 stepping sweep, stepping
// with fast-forward off, the observability sink modes and the fault attach
// states. Nothing judges these numbers; CI uploads the report.
#include <benchmark/benchmark.h>

#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

#include "arb/factory.hpp"
#include "arb/lrg.hpp"
#include "circuit/circuit_arbiter.hpp"
#include "common.hpp"
#include "core/output_arbiter.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/scrubber.hpp"
#include "obs/conformance.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "switch/observe.hpp"
#include "sim/rng.hpp"
#include "switch/crossbar.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace ssq;

std::vector<arb::Request> all_requests(std::uint32_t radix) {
  std::vector<arb::Request> reqs;
  for (InputId i = 0; i < radix; ++i) reqs.push_back({i, 8, 0});
  return reqs;
}

void BM_BaselineArbiter(benchmark::State& state, arb::Kind kind) {
  const auto radix = static_cast<std::uint32_t>(state.range(0));
  std::vector<double> rates(radix, 1.0);
  auto arbiter = arb::make_arbiter(kind, radix, rates, 8);
  const auto reqs = all_requests(radix);
  Cycle now = 0;
  for (auto _ : state) {
    const InputId w = arbiter->pick(reqs, now);
    arbiter->on_grant(w, 8, now);
    benchmark::DoNotOptimize(w);
    now += 9;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_SsvcPickGrant(benchmark::State& state) {
  const auto radix = static_cast<std::uint32_t>(state.range(0));
  core::SsvcParams params;
  params.level_bits = 3;
  params.lsb_bits = 6;
  auto alloc = core::OutputAllocation::none(radix);
  for (InputId i = 0; i < radix; ++i) alloc.gb_rate[i] = 0.9 / radix;
  alloc.gb_packet_len = 8;
  core::OutputQosArbiter arbiter(radix, params, alloc,
                                 core::GlPolicing::Stall, 32);
  std::vector<core::ClassRequest> reqs;
  for (InputId i = 0; i < radix; ++i) {
    reqs.push_back({i, TrafficClass::GuaranteedBandwidth, 8});
  }
  Cycle now = 0;
  for (auto _ : state) {
    arbiter.advance_to(now);
    const InputId w = arbiter.pick(reqs, now);
    arbiter.on_grant(w, arbiter.picked_class(), 8, now);
    benchmark::DoNotOptimize(w);
    now += 9;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CircuitArbitrate(benchmark::State& state) {
  const auto radix = static_cast<std::uint32_t>(state.range(0));
  circuit::LaneLayout layout{.radix = radix,
                             .bus_width = radix * 8,
                             .gb_lanes = 4,
                             .has_gl_lane = true,
                             .has_be_lane = true};
  circuit::CircuitArbiter wires(layout);
  arb::LrgArbiter lrg(radix);
  Rng rng(1);
  std::vector<circuit::CrosspointRequest> reqs;
  for (InputId i = 0; i < radix; ++i) {
    reqs.push_back({i, circuit::RequestKind::Gb,
                    static_cast<std::uint32_t>(rng.below(4))});
  }
  for (auto _ : state) {
    const auto trace = wires.arbitrate(reqs, lrg);
    lrg.on_grant(trace.winner, 1, 0);
    benchmark::DoNotOptimize(trace.winner);
  }
  state.SetItemsProcessed(state.iterations());
}

// Discards everything written to it; the tracing benchmark still pays for
// event formatting, just not for disk I/O.
struct NullStreambuf final : std::streambuf {
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

enum class ObsMode { Off, Metrics, Trace, Monitor };

// Whole-switch stepping on the saturated Fig. 4 workload (8 GB flows onto
// one output). items_per_second = simulated cycles per wall-clock second;
// compare the modes for the observability overhead (Monitor attaches the
// online QoS conformance monitor on the probe's extra sink — the cost the
// ssq_sim/ssq_fuzz --monitor flag pays per cycle).
void BM_SwitchStep(benchmark::State& state, ObsMode mode) {
  const std::vector<double> rates = {0.40, 0.20, 0.10, 0.10,
                                     0.05, 0.05, 0.05, 0.05};
  traffic::Workload w(8);
  for (InputId i = 0; i < 8; ++i) {
    w.add_flow(bench::make_gb_flow(i, 0, rates[i], 8, 0.9));
  }
  sw::CrossbarSwitch sim(bench::paper_switch_config(), std::move(w));

  obs::SwitchProbe probe(8);
  NullStreambuf null_buf;
  std::ostream null_os(&null_buf);
  obs::JsonlSink sink(null_os);
  obs::Tracer tracer(sink);
  std::unique_ptr<obs::ConformanceMonitor> monitor;
  if (mode != ObsMode::Off) {
    if (mode == ObsMode::Trace) probe.set_tracer(&tracer);
    if (mode == ObsMode::Monitor) {
      monitor = std::make_unique<obs::ConformanceMonitor>(
          sw::make_conformance_config(sim.config(), sim.workload(), 2048));
      probe.set_extra_sink(monitor.get());
    }
    sim.attach_probe(&probe);
  }

  constexpr Cycle kChunk = 1000;
  for (auto _ : state) {
    sim.run(kChunk);
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}

// Whole-switch SSVC stepping parameterised by radix (8/16/32/64) on a
// saturated hotspot: radix/2 GB reservations onto output 0 plus spread
// best-effort from the remaining inputs. items_per_second here is the
// radix-N "cycles/sec" headline.
void BM_SwitchStepRadix(benchmark::State& state) {
  const auto radix = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t gb = radix / 2;
  traffic::Workload w(radix);
  for (InputId i = 0; i < gb; ++i) {
    w.add_flow(bench::make_gb_flow(i, 0, 0.88 / gb, 8, 0.5));
  }
  for (InputId i = gb; i < radix; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Bernoulli;
    f.inject_rate = 0.3;
    w.add_flow(f);
  }
  auto config = bench::paper_switch_config();
  config.radix = radix;
  config.ssvc.level_bits = 2;
  config.ssvc.lsb_bits = 8;
  sw::CrossbarSwitch sim(config, std::move(w));
  sim.warmup(2000);

  constexpr Cycle kChunk = 1000;
  for (auto _ : state) {
    sim.run(kChunk);
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}

// Sparse periodic radix-64 workload (synchronized periodic flows, ~97%
// globally idle) with idle-cycle fast-forward on/off.
// items_per_second counts SIMULATED cycles, so the ff variant's speedup is
// the fast-forward win; the ff_skipped counter reports how many of those
// cycles were jumped over (every other cycle is a full step).
void BM_SwitchStepSparse(benchmark::State& state, bool fast_forward) {
  const std::uint32_t radix = 64;
  traffic::Workload w(radix);
  for (InputId i = 0; i < radix / 4; ++i) {
    traffic::FlowSpec f;
    f.src = i;
    f.dst = 1 + (i % (radix - 1));
    f.cls = TrafficClass::BestEffort;
    f.len_min = f.len_max = 8;
    f.inject = traffic::InjectKind::Periodic;
    f.inject_rate = 0.02;  // period = 400 cycles
    w.add_flow(f);
  }
  auto config = bench::paper_switch_config();
  config.radix = radix;
  config.fast_forward = fast_forward;
  config.ssvc.level_bits = 2;
  config.ssvc.lsb_bits = 8;
  sw::CrossbarSwitch sim(config, std::move(w));
  sim.warmup(2000);

  constexpr Cycle kChunk = 1000;
  for (auto _ : state) {
    sim.run(kChunk);
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
  state.counters["ff_skipped_cycles"] =
      static_cast<double>(sim.ff_skipped_cycles());
}

// Same stepping workload with the fault subsystem in its three states:
// detached (the default null-pointer fast path — must be within noise of
// BM_SwitchStep/obs_off), attached with an empty plan (outage checks only),
// and actively injecting with scrubbing on.
enum class FaultMode { Detached, EmptyPlan, Active };

void BM_SwitchStepFaults(benchmark::State& state, FaultMode mode) {
  const std::vector<double> rates = {0.40, 0.20, 0.10, 0.10,
                                     0.05, 0.05, 0.05, 0.05};
  traffic::Workload w(8);
  for (InputId i = 0; i < 8; ++i) {
    w.add_flow(bench::make_gb_flow(i, 0, rates[i], 8, 0.9));
  }
  sw::CrossbarSwitch sim(bench::paper_switch_config(), std::move(w));

  fault::FaultPlan plan;
  if (mode == FaultMode::Active) plan.bitflip_rate = 1e-3;
  fault::FaultInjector injector(plan);
  fault::StateScrubber scrubber(/*interval=*/256);
  if (mode != FaultMode::Detached) {
    sim.attach_fault_injector(&injector);
    if (mode == FaultMode::Active) sim.attach_scrubber(&scrubber);
  }

  constexpr Cycle kChunk = 1000;
  for (auto _ : state) {
    sim.run(kChunk);
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunk));
}

}  // namespace

BENCHMARK_CAPTURE(BM_BaselineArbiter, lrg, ssq::arb::Kind::Lrg)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(BM_BaselineArbiter, wfq, ssq::arb::Kind::Wfq)
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_BaselineArbiter, dwrr, ssq::arb::Kind::Dwrr)
    ->Arg(8)->Arg(64);
BENCHMARK_CAPTURE(BM_BaselineArbiter, virtual_clock,
                  ssq::arb::Kind::VirtualClock)
    ->Arg(8)->Arg(64);
BENCHMARK(BM_SsvcPickGrant)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_CircuitArbitrate)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_SwitchStepRadix)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK_CAPTURE(BM_SwitchStepSparse, ff_on, true);
BENCHMARK_CAPTURE(BM_SwitchStepSparse, ff_off, false);
BENCHMARK_CAPTURE(BM_SwitchStep, obs_off, ObsMode::Off);
BENCHMARK_CAPTURE(BM_SwitchStep, obs_metrics, ObsMode::Metrics);
BENCHMARK_CAPTURE(BM_SwitchStep, obs_trace_null_sink, ObsMode::Trace);
BENCHMARK_CAPTURE(BM_SwitchStep, obs_monitor, ObsMode::Monitor);
BENCHMARK_CAPTURE(BM_SwitchStepFaults, fault_detached, FaultMode::Detached);
BENCHMARK_CAPTURE(BM_SwitchStepFaults, fault_empty_plan, FaultMode::EmptyPlan);
BENCHMARK_CAPTURE(BM_SwitchStepFaults, fault_active_scrubbed,
                  FaultMode::Active);

BENCHMARK_MAIN();
