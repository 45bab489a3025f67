#include "switch/crossbar.hpp"

#include "arb/pvc.hpp"
#include "fault/injector.hpp"
#include "fault/scrubber.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

namespace ssq::sw {

CrossbarSwitch::CrossbarSwitch(const SwitchConfig& config,
                               traffic::Workload workload)
    : config_(config), workload_(std::move(workload)), rng_(config.seed) {
  config_.validate();
  SSQ_EXPECT(workload_.radix() == config_.radix);
  workload_.validate();
  if (config_.packet_chaining) {
    SSQ_EXPECT(config_.mode == ArbitrationMode::SsvcQos &&
               "packet chaining requires the QoS arbiters (baseline WRR/DWRR "
               "cannot be charged without a pick)");
  }

  const std::uint32_t radix = config_.radix;
  scratch_ = StepScratch(radix);
  inputs_.reserve(radix);
  for (InputId i = 0; i < radix; ++i) {
    inputs_.emplace_back(i, radix, config_.buffers);
  }
  output_free_at_.assign(radix, 0);
  transmissions_.resize(radix);
  usage_.resize(radix);
  preemptions_.assign(radix, 0);
  if (config_.pvc.preemption) {
    SSQ_EXPECT(config_.mode == ArbitrationMode::Baseline &&
               config_.baseline == arb::Kind::Pvc &&
               "PVC preemption requires the PVC baseline arbiter");
  }

  if (config_.mode == ArbitrationMode::SsvcQos) {
    qos_.reserve(radix);
  } else {
    baseline_.reserve(radix);
  }
  for (OutputId o = 0; o < radix; ++o) {
    auto alloc = workload_.allocation_for(o);
    if (config_.mode == ArbitrationMode::SsvcQos) {
      qos_.push_back(std::make_unique<core::OutputQosArbiter>(
          radix, config_.ssvc, std::move(alloc), config_.gl_policing,
          config_.gl_allowance_packets, config_.kernel));
    } else {
      // Rate-parameterised baselines receive the GB reservations; inputs
      // with no reservation get a nominal unit share.
      std::vector<double> rates(radix, 0.0);
      bool any = false;
      for (InputId i = 0; i < radix; ++i) {
        rates[i] = alloc.gb_rate[i];
        if (rates[i] > 0.0) any = true;
      }
      for (InputId i = 0; i < radix; ++i) {
        if (rates[i] <= 0.0) rates[i] = any ? 1e-3 : 1.0;
      }
      baseline_.push_back(arb::make_arbiter(config_.baseline, radix, rates,
                                            alloc.gb_packet_len));
    }
  }

  if (config_.engine != arb::MatchKind::None) {
    // The engine stream must be independent of the per-flow injector forks
    // (rng_.fork(f) below) — derive it by hashing the seed once.
    std::uint64_t sm = config_.seed ^ 0x6d61746368ULL;  // "match"
    engine_ = arb::make_engine(config_.engine, radix, config_.match_iterations,
                               splitmix64(sm));
  }

  input_flows_.resize(radix);
  accept_ptr_.assign(radix, 0);
  accept_out_ptr_.assign(radix, 0);
  const auto& flows = workload_.flows();
  injectors_.reserve(flows.size());
  source_q_.resize(flows.size());
  max_backlog_.assign(flows.size(), 0);
  created_.assign(flows.size(), 0);
  admitted_.assign(flows.size(), 0);
  delivered_.assign(flows.size(), 0);
  throughput_.resize(flows.size());
  gsf_quota_.assign(flows.size(), 0);
  gsf_used_.assign(flows.size(), 0);
  nonempty_src_flows_.assign(radix, 0);
  bern_bank_ = std::make_unique<traffic::BernoulliBank>();
  for (FlowId f = 0; f < flows.size(); ++f) {
    injectors_.emplace_back(flows[f], rng_.fork(f));
    // Eligible (strict-interior Bernoulli) streams migrate into the SoA
    // bank, advanced 4-wide once per cycle at the top of inject_create().
    injectors_.back().bind_bank(*bern_bank_);
    input_flows_[flows[f].src].push_back(f);
    latency_.register_flow(flows[f].cls);
    wait_.register_flow(flows[f].cls);
    if (config_.gsf.enabled &&
        flows[f].cls == TrafficClass::GuaranteedBandwidth) {
      const double per_frame =
          flows[f].reserved_rate *
          static_cast<double>(config_.gsf.frame_cycles) /
          static_cast<double>(flows[f].mean_len());
      gsf_quota_[f] = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(per_frame));
    }
  }
  throughput_.open_window(0);
  // Baseline arbiters tick on_idle() every cycle, which makes idle cycles
  // observable; every other per-cycle consumer participates in the
  // event-horizon protocol, so SSVC-mode configs are always eligible.
  ff_eligible_ = config_.fast_forward && config_.mode == ArbitrationMode::SsvcQos;
}

const InputPort& CrossbarSwitch::input(InputId i) const {
  SSQ_EXPECT(i < inputs_.size());
  return inputs_[i];
}

void CrossbarSwitch::attach_probe(obs::SwitchProbe* probe) {
  SSQ_EXPECT(probe == nullptr || probe->radix() == config_.radix);
  obs_ = probe;
  // SSVC arbiters report their internals into the same probe; the class-blind
  // baselines have no QoS state worth tracing.
  for (OutputId o = 0; o < qos_.size(); ++o) {
    qos_[o]->set_probe(probe, o);
  }
  if (fault_ != nullptr) fault_->set_probe(probe);
}

void CrossbarSwitch::attach_fault_injector(fault::FaultInjector* injector) {
  fault_ = injector;
  if (injector == nullptr) return;
  std::vector<core::OutputQosArbiter*> arbs;
  arbs.reserve(qos_.size());
  for (auto& q : qos_) arbs.push_back(q.get());
  injector->bind(std::move(arbs), config_.radix);
  injector->set_probe(obs_);
  // Injected LRG corruption must degrade gracefully, not abort: the strict
  // total-order invariant is suspended only while faults are being injected.
  for (auto& q : qos_) q->lrg().set_fault_tolerant(true);
}

void CrossbarSwitch::attach_scrubber(fault::StateScrubber* scrubber) {
  scrub_ = scrubber;
  if (scrubber == nullptr) return;
  std::vector<core::OutputQosArbiter*> arbs;
  arbs.reserve(qos_.size());
  for (auto& q : qos_) arbs.push_back(q.get());
  scrubber->bind(std::move(arbs));
}

core::OutputQosArbiter& CrossbarSwitch::qos_arbiter(OutputId o) {
  SSQ_EXPECT(config_.mode == ArbitrationMode::SsvcQos);
  SSQ_EXPECT(o < qos_.size());
  return *qos_[o];
}

const core::OutputQosArbiter& CrossbarSwitch::qos_arbiter(OutputId o) const {
  SSQ_EXPECT(config_.mode == ArbitrationMode::SsvcQos);
  SSQ_EXPECT(o < qos_.size());
  return *qos_[o];
}

bool CrossbarSwitch::output_idle(OutputId o) const {
  SSQ_EXPECT(o < output_free_at_.size());
  return output_free_at_[o] <= now_;
}

CrossbarSwitch::ChannelUsage CrossbarSwitch::channel_usage(OutputId o) const {
  SSQ_EXPECT(o < usage_.size());
  return usage_[o];
}

std::uint64_t CrossbarSwitch::preemptions(OutputId o) const {
  SSQ_EXPECT(o < preemptions_.size());
  return preemptions_[o];
}

void CrossbarSwitch::preempt_scan() {
  for (OutputId o = 0; o < config_.radix; ++o) {
    auto& t = transmissions_[o];
    if (!t.active || now_ >= t.last_flit) continue;
    auto* pvc = dynamic_cast<arb::PvcArbiter*>(baseline_[o].get());
    SSQ_ENSURE(pvc != nullptr);
    // Best waiting challenger for this output.
    std::uint32_t best_level = pvc->num_levels();
    for (InputId i = 0; i < config_.radix; ++i) {
      if (inputs_[i].busy(now_)) continue;
      if (candidate_for(i, o) == nullptr) continue;
      best_level = std::min(best_level, pvc->level(i, now_));
    }
    if (best_level + config_.pvc.preempt_margin >= t.granted_level) continue;

    // Abort: the victim is dropped and retried from the source buffer; the
    // flits already moved are waste. transfer() has already run this cycle,
    // so flits for cycles first_flit..now_ inclusive are gone.
    const auto transferred = static_cast<std::uint32_t>(
        now_ >= t.first_flit ? now_ - t.first_flit + 1 : 0);
    throughput_.unrecord_flits(t.pkt.flow, transferred);
    if (measuring_) {
      // Saturating: the grant may predate the measurement window.
      const std::uint64_t untransferred = t.pkt.length - transferred;
      usage_[o].transfer_cycles -=
          std::min<std::uint64_t>(untransferred, usage_[o].transfer_cycles);
    }
    wasted_flits_ += transferred;
    ++preemptions_[o];
    if (obs_ != nullptr) {
      obs_->preempted(now_, t.pkt.src, o, t.pkt.cls, t.pkt.flow, t.pkt.id,
                      transferred);
    }
    const InputId src = t.pkt.src;
    Packet victim = std::move(t.pkt);
    victim.granted = kNoCycle;
    if (inputs_[src].can_restore(victim.cls, victim.dst, transferred)) {
      // Re-account the drained flits and retry from the buffer head.
      inputs_[src].push_front(std::move(victim), transferred);
    } else {
      // Admission refilled the drained space: release what the victim still
      // holds and retransmit from the source queue (its network-latency
      // clock restarts at re-admission, as a true source retransmit would).
      for (std::uint32_t k = transferred; k < victim.length; ++k) {
        inputs_[src].drain_flit(victim.cls, victim.dst);
      }
      const FlowId vf = victim.flow;
      source_q_[vf].push_front(std::move(victim));
      note_source_push(vf, src);
      max_backlog_[vf] = std::max(max_backlog_[vf], source_q_[vf].size());
    }
    inputs_[src].set_free_at(now_);
    output_free_at_[o] = now_;
    t.active = false;
    active_out_ &= ~(1ULL << o);
  }
}

std::uint64_t CrossbarSwitch::delivered_packets(FlowId f) const {
  SSQ_EXPECT(f < delivered_.size());
  return delivered_[f];
}

std::uint64_t CrossbarSwitch::created_packets(FlowId f) const {
  SSQ_EXPECT(f < created_.size());
  return created_[f];
}

std::size_t CrossbarSwitch::max_source_backlog(FlowId f) const {
  SSQ_EXPECT(f < max_backlog_.size());
  return max_backlog_[f];
}

void CrossbarSwitch::inject_create() {
  // One lock-step trial for every banked Bernoulli stream; packets_at()
  // below reads the latched outcomes.
  if (!bern_bank_->empty()) bern_bank_->roll(now_);
  // Packet creation into source queues.
  for (FlowId f = 0; f < injectors_.size(); ++f) {
    auto& inj = injectors_[f];
    const std::uint32_t n = inj.packets_at(now_);
    for (std::uint32_t k = 0; k < n; ++k) {
      Packet p;
      p.id = next_packet_id_++;
      p.flow = f;
      p.src = inj.spec().src;
      p.dst = inj.spec().dst;
      p.cls = inj.spec().cls;
      p.length = inj.draw_length();
      p.created = now_;
      if (obs_ != nullptr) {
        obs_->packet_created(now_, f, p.id, p.src, p.dst, p.cls, p.length,
                             source_q_[f].size() + 1);
      }
      source_q_[f].push_back(std::move(p));
      note_source_push(f, inj.spec().src);
    }
    if (n != 0) {
      // The backlog only grows at a push, so sampling after pushes (here and
      // at the preempt re-queue) sees the same running maximum as sampling
      // every cycle did.
      created_[f] += n;
      live_packets_ += n;
      max_backlog_[f] = std::max(max_backlog_[f], source_q_[f].size());
    }
  }
}

void CrossbarSwitch::inject_admit() {
  // GSF frame bookkeeping: reset quotas at frame boundaries; injection of
  // regulated flows pauses during the barrier window.
  bool gsf_barrier = false;
  if (config_.gsf.enabled) {
    if (now_ - gsf_frame_start_ >= config_.gsf.frame_cycles) {
      // Catch up whole frames — one in stepped runs, possibly many after a
      // fast-forward jump — keeping the boundary grid aligned to cycle 0.
      // Assigning now_ here instead would shear the grid after a jump; the
      // modulo form is identical when stepping (the quotient is 1: the
      // boundary is checked every cycle, so the distance is exactly one
      // frame when it triggers).
      gsf_frame_start_ +=
          ((now_ - gsf_frame_start_) / config_.gsf.frame_cycles) *
          config_.gsf.frame_cycles;
      for (auto& used : gsf_used_) used = 0;
    }
    gsf_barrier =
        (now_ - gsf_frame_start_) < config_.gsf.barrier_cycles;
  }

  // Admission: at most one packet per input per cycle, round-robin over the
  // input's flows. Only inputs with something queued at the source are
  // visited (admit_mask_); skipped inputs would fall straight through every
  // source_q_ empty-check, so the walk order (still ascending) and outcome
  // are unchanged.
  fault::FaultInjector* const fi = fault_;
  for (std::uint64_t mw = admit_mask_; mw != 0; mw &= mw - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(mw));
    const auto& flows = input_flows_[i];
    // A dead input port admits nothing; its traffic backs up at the source.
    if (fi != nullptr && fi->port_dead(i)) continue;
    const std::size_t nf = flows.size();
    for (std::size_t k = 0; k < nf; ++k) {
      // accept_ptr_ < nf and k < nf, so one conditional subtract replaces
      // the modulo (an integer division per input per cycle on the hot path).
      std::size_t idx = accept_ptr_[i] + k;
      if (idx >= nf) idx -= nf;
      const FlowId f = flows[idx];
      if (source_q_[f].empty()) continue;
      if (gsf_quota_[f] > 0 &&
          (gsf_barrier || gsf_used_[f] >= gsf_quota_[f])) {
        continue;  // GSF: out of frame quota, or inside the barrier window
      }
      if (!inputs_[i].can_accept(source_q_[f].front())) {
        if (obs_ != nullptr) {
          const Packet& blocked = source_q_[f].front();
          obs_->admit_blocked(now_, f, blocked.src, blocked.dst, blocked.cls,
                              blocked.length);
        }
        continue;
      }
      if (obs_ != nullptr) {
        const Packet& head = source_q_[f].front();
        obs_->packet_buffered(now_, f, head.id, head.src, head.dst, head.cls,
                              head.length);
      }
      inputs_[i].accept(std::move(source_q_[f].front()), now_);
      ++admitted_[f];
      source_q_[f].pop_front();
      note_source_pop(f, i);
      if (gsf_quota_[f] > 0) ++gsf_used_[f];
      accept_ptr_[i] = idx + 1 == nf ? 0 : idx + 1;
      break;
    }
  }
}

void CrossbarSwitch::transfer() {
  for (std::uint64_t w = active_out_; w != 0; w &= w - 1) {
    const auto o = static_cast<OutputId>(std::countr_zero(w));
    auto& t = transmissions_[o];
    if (now_ < t.first_flit) continue;
    SSQ_ENSURE(now_ <= t.last_flit);
    throughput_.record_flit(t.pkt.flow, now_);
    inputs_[t.pkt.src].drain_flit(t.pkt.cls, t.pkt.dst);
    if (now_ == t.last_flit) complete(t, o);
  }
}

void CrossbarSwitch::complete(Transmission& t, OutputId o) {
  t.pkt.delivered = now_;
  if (measuring_) {
    const Cycle from =
        config_.latency_from_creation ? t.pkt.created : t.pkt.buffered;
    latency_.record(t.pkt.flow, static_cast<double>(t.pkt.delivered - from));
    wait_.record(t.pkt.flow, static_cast<double>(t.pkt.granted - t.pkt.buffered));
  }
  ++delivered_[t.pkt.flow];
  SSQ_ENSURE(live_packets_ >= 1);
  --live_packets_;
  if (obs_ != nullptr) {
    const Cycle from =
        config_.latency_from_creation ? t.pkt.created : t.pkt.buffered;
    obs_->delivered(now_, t.pkt.src, o, t.pkt.cls, t.pkt.flow, t.pkt.id,
                    t.pkt.length, now_ - from);
  }

  const InputId src = t.pkt.src;
  const TrafficClass cls = t.pkt.cls;
  t.active = false;
  active_out_ &= ~(1ULL << o);

  // Packet Chaining: the next packet of the same (input, queue, output) may
  // seize the channel without a fresh arbitration cycle; the arbiter state
  // is still charged for it. GL-awareness: chaining removes arbitration
  // opportunities, which would break the Eq. (1) bound — so a chain is
  // broken whenever any input holds a GL packet for this output.
  if (config_.packet_chaining) {
    // A dead port or crosspoint cannot chain either.
    if (fault_ != nullptr &&
        (fault_->port_dead(src) || !fault_->link_alive(src, o))) {
      return;
    }
    for (InputId i = 0; i < config_.radix; ++i) {
      if (const Packet* h = inputs_[i].gl_head();
          h != nullptr && h->dst == o) {
        return;  // yield the channel to a fresh (GL-winning) arbitration
      }
    }
    const Packet* head = nullptr;
    switch (cls) {
      case TrafficClass::GuaranteedBandwidth:
        head = inputs_[src].gb_head(o);
        break;
      case TrafficClass::BestEffort: {
        const Packet* h = inputs_[src].be_head();
        head = (h && h->dst == o) ? h : nullptr;
        break;
      }
      case TrafficClass::GuaranteedLatency: {
        const Packet* h = inputs_[src].gl_head();
        head = (h && h->dst == o) ? h : nullptr;
        break;
      }
    }
    if (head != nullptr) {
      qos_[o]->advance_to(now_);
      // GL chaining is also policed: an over-budget GL class cannot chain.
      if (cls != TrafficClass::GuaranteedLatency ||
          qos_[o]->gl_tracker().eligible(now_)) {
        Packet pkt = pop_for(src, cls, o);
        pkt.granted = now_;
        if (measuring_) usage_[o].transfer_cycles += pkt.length;  // no arb
        qos_[o]->on_grant(src, cls, pkt.length, now_);
        scratch_.grants.push_back({src, o, cls, /*chained=*/true});
        if (obs_ != nullptr) {
          obs_->grant(now_, src, o, cls, pkt.flow, pkt.id, pkt.length,
                      now_ - pkt.buffered, /*chained=*/true);
          obs_->transfer_start(now_ + 1, src, o, cls, pkt.flow, pkt.id,
                               pkt.length);
        }
        start_transmission(std::move(pkt), o, now_ + 1);
        if (cls == TrafficClass::GuaranteedBandwidth) {
          inputs_[src].advance_gb_pointer(o);
        }
      }
    }
  }
}

Packet CrossbarSwitch::pop_for(InputId i, TrafficClass cls, OutputId o) {
  switch (cls) {
    case TrafficClass::BestEffort: {
      Packet p = inputs_[i].pop_be();
      SSQ_ENSURE(p.dst == o);
      return p;
    }
    case TrafficClass::GuaranteedBandwidth:
      return inputs_[i].pop_gb(o);
    case TrafficClass::GuaranteedLatency: {
      Packet p = inputs_[i].pop_gl();
      SSQ_ENSURE(p.dst == o);
      return p;
    }
  }
  SSQ_EXPECT(false);
  return Packet{};
}

void CrossbarSwitch::start_transmission(Packet&& pkt, OutputId o,
                                        Cycle first_flit) {
  auto& t = transmissions_[o];
  SSQ_EXPECT(!t.active);
  const Cycle last = first_flit + pkt.length - 1;
  inputs_[pkt.src].set_free_at(last + 1);
  output_free_at_[o] = last + 1;
  t.pkt = std::move(pkt);
  t.first_flit = first_flit;
  t.last_flit = last;
  t.active = true;
  active_out_ |= 1ULL << o;
}

void CrossbarSwitch::select_requests(
    std::vector<PendingRequest>& pending) const {
  pending.assign(inputs_.size(), PendingRequest{});
  // Outputs that can start a transmission this cycle, as one bitmask: hoists
  // the output_idle() probes out of the per-input scans — the GB rotation
  // pre-ANDs busy outputs away instead of testing them one by one.
  std::uint64_t idle = 0;
  for (std::size_t o = 0; o < output_free_at_.size(); ++o) {
    if (output_free_at_[o] <= now_) idle |= 1ULL << o;
  }
  fault::FaultInjector* const fi = fault_;
  for (InputId i = 0; i < inputs_.size(); ++i) {
    const auto& port = inputs_[i];
    if (port.busy(now_)) continue;
    if (fi != nullptr && fi->port_dead(i)) continue;  // port outage

    const auto link_ok = [fi, i](OutputId o) {
      return fi == nullptr || fi->link_alive(i, o);
    };
    const auto prio_of = [this](const Packet& p) {
      return workload_.flow(p.flow).legacy_priority;
    };
    // 1) GL head, if its channel can arbitrate this cycle.
    if (const Packet* h = port.gl_head();
        h != nullptr && ((idle >> h->dst) & 1) != 0 && link_ok(h->dst)) {
      pending[i] = {h->dst, h->cls, h->length, h->buffered, prio_of(*h)};
      continue;
    }
    // 2) GB heads, rotating over outputs for per-port fairness. The port's
    // non-empty bitmask, masked to idle outputs, narrows the rotating scan
    // to servable crosspoint queues (same visit order — and so the same
    // choice — as scanning every output from gb_pointer()).
    bool chosen = false;
    if (const std::uint64_t occ = port.gb_nonempty() & idle; occ != 0) {
      const auto try_output = [&](OutputId o) {
        if (chosen || !link_ok(o)) return;
        const Packet* h = port.gb_head(o);
        pending[i] = {o, h->cls, h->length, h->buffered, prio_of(*h)};
        chosen = true;
      };
      const std::uint32_t ptr = port.gb_pointer();
      const std::uint64_t below = (1ULL << ptr) - 1;  // ptr < radix <= 64
      for (std::uint64_t w = occ & ~below; w != 0 && !chosen; w &= w - 1) {
        try_output(static_cast<OutputId>(std::countr_zero(w)));
      }
      for (std::uint64_t w = occ & below; w != 0 && !chosen; w &= w - 1) {
        try_output(static_cast<OutputId>(std::countr_zero(w)));
      }
    }
    if (chosen) continue;
    // 3) BE head.
    if (const Packet* h = port.be_head();
        h != nullptr && ((idle >> h->dst) & 1) != 0 && link_ok(h->dst)) {
      pending[i] = {h->dst, h->cls, h->length, h->buffered, prio_of(*h)};
    }
  }
}

void CrossbarSwitch::arbitrate() {
  StepScratch& s = scratch_;
  select_requests(s.pending);
  if (obs_ != nullptr) {
    for (InputId i = 0; i < s.pending.size(); ++i) {
      if (s.pending[i].out != kNoPort) {
        obs_->request(now_, i, s.pending[i].out, s.pending[i].cls);
      }
    }
  }

  const std::uint32_t radix = config_.radix;
  const bool ssvc = config_.mode == ArbitrationMode::SsvcQos;
  if (ssvc && config_.kernel != core::ArbKernel::Scalar) {
    arbitrate_masked();
    return;
  }

  // Counting-sort the asserted requests into per-output slices of one flat
  // array (stable: input order is preserved within each output, exactly as
  // the old per-output input scan produced it). One O(radix) pass replaces
  // the O(radix^2) gather, and the scratch arrays make it allocation-free.
  std::fill(s.bucket_begin.begin(), s.bucket_begin.end(), 0u);
  for (InputId i = 0; i < radix; ++i) {
    const OutputId o = s.pending[i].out;
    if (o != kNoPort) ++s.bucket_begin[o + 1];
  }
  for (OutputId o = 0; o < radix; ++o) {
    s.bucket_begin[o + 1] += s.bucket_begin[o];
  }
  std::copy(s.bucket_begin.begin(), s.bucket_begin.end() - 1,
            s.bucket_cursor.begin());
  const std::uint32_t total = s.bucket_begin[radix];
  if (ssvc) {
    s.qos_reqs.resize(total);  // capacity reserved to radix at construction
  } else {
    s.base_reqs.resize(total);
  }
  for (InputId i = 0; i < radix; ++i) {
    const PendingRequest& p = s.pending[i];
    if (p.out == kNoPort) continue;
    const std::uint32_t slot = s.bucket_cursor[p.out]++;
    if (ssvc) {
      s.qos_reqs[slot] = {i, p.cls, p.length};
    } else {
      s.base_reqs[slot] = {i, p.length, p.buffered, p.prio};
    }
  }

  for (OutputId o = 0; o < radix; ++o) {
    if (!output_idle(o)) continue;
    const std::uint32_t begin = s.bucket_begin[o];
    const std::uint32_t count = s.bucket_begin[o + 1] - begin;

    InputId winner = kNoPort;
    TrafficClass win_cls = TrafficClass::BestEffort;
    if (ssvc) {
      if (count == 0) continue;
      auto& arbiter = *qos_[o];
      arbiter.advance_to(now_);
      const std::span<const core::ClassRequest> reqs(&s.qos_reqs[begin],
                                                     count);
      winner = arbiter.pick(reqs, now_);
      if (winner == kNoPort) continue;  // stalled GL only
      win_cls = arbiter.picked_class();
      SSQ_ENSURE(win_cls == s.pending[winner].cls);
      arbiter.on_grant(winner, win_cls, s.pending[winner].length, now_);
    } else {
      auto& arbiter = *baseline_[o];
      if (count == 0) {
        arbiter.on_idle(now_);
        continue;
      }
      const std::span<const arb::Request> reqs(&s.base_reqs[begin], count);
      winner = arbiter.pick(reqs, now_);
      if (winner == kNoPort) {  // TDM: the slot owner is idle — wasted slot
        arbiter.on_idle(now_);
        continue;
      }
      win_cls = s.pending[winner].cls;
      if (auto* pvc = dynamic_cast<arb::PvcArbiter*>(&arbiter)) {
        transmissions_[o].granted_level = pvc->level(winner, now_);
      }
      arbiter.on_grant(winner, s.pending[winner].length, now_);
    }

    commit_grant(winner, o, win_cls);
  }
}

void CrossbarSwitch::arbitrate_masked() {
  // Bit-sliced single-request allocation: one O(radix) pass packs every
  // asserted request into per-output class masks, and each live output
  // resolves in O(lanes + words) word operations. Request order inside an
  // output is ascending input order by construction (bit order), exactly
  // what the counting sort produced for the scalar kernel.
  StepScratch& s = scratch_;
  const std::uint32_t radix = config_.radix;
  std::fill(s.gl_mask.begin(), s.gl_mask.end(), 0ULL);
  std::fill(s.gb_mask.begin(), s.gb_mask.end(), 0ULL);
  std::fill(s.be_mask.begin(), s.be_mask.end(), 0ULL);
  std::uint64_t requested = 0;  // outputs with >= 1 asserted request
  for (InputId i = 0; i < radix; ++i) {
    const PendingRequest& p = s.pending[i];
    if (p.out == kNoPort) continue;
    const std::uint64_t bit = 1ULL << i;
    requested |= 1ULL << p.out;
    switch (p.cls) {
      case TrafficClass::GuaranteedLatency: s.gl_mask[p.out] |= bit; break;
      case TrafficClass::GuaranteedBandwidth: s.gb_mask[p.out] |= bit; break;
      case TrafficClass::BestEffort: s.be_mask[p.out] |= bit; break;
    }
  }
  // Only requested outputs can grant; an un-requested output's advance_to()
  // stays lazy exactly as in the scalar kernel. Bit order == ascending o.
  for (std::uint64_t w = requested; w != 0; w &= w - 1) {
    const auto o = static_cast<OutputId>(std::countr_zero(w));
    if (!output_idle(o)) continue;
    const std::uint64_t gl = s.gl_mask[o];
    const std::uint64_t gb = s.gb_mask[o];
    const std::uint64_t be = s.be_mask[o];
    auto& arbiter = *qos_[o];
    arbiter.advance_to(now_);
    const InputId winner = arbiter.pick_masked(gl, gb, be, now_);
    if (winner == kNoPort) continue;  // stalled GL only
    const TrafficClass win_cls = arbiter.picked_class();
    SSQ_ENSURE(win_cls == s.pending[winner].cls);
    arbiter.on_grant(winner, win_cls, s.pending[winner].length, now_);
    commit_grant(winner, o, win_cls);
  }
}

void CrossbarSwitch::commit_grant(InputId winner, OutputId o,
                                  TrafficClass cls) {
  Packet pkt = pop_for(winner, cls, o);
  pkt.granted = now_;
  scratch_.grants.push_back({winner, o, cls, /*chained=*/false});
  if (measuring_) {
    usage_[o].arbitration_cycles += config_.arbitration_cycles;
    usage_[o].transfer_cycles += pkt.length;
  }
  if (obs_ != nullptr) {
    obs_->grant(now_, winner, o, cls, pkt.flow, pkt.id, pkt.length,
                now_ - pkt.buffered, /*chained=*/false);
    obs_->transfer_start(now_ + config_.arbitration_cycles, winner, o, cls,
                         pkt.flow, pkt.id, pkt.length);
  }
  // Arbitration occupies arbitration_cycles (1 for SSVC, 2 for the legacy
  // 4-level design [14]); flits flow once it completes.
  start_transmission(std::move(pkt), o, now_ + config_.arbitration_cycles);
  if (cls == TrafficClass::GuaranteedBandwidth) {
    inputs_[winner].advance_gb_pointer(o);
  }
}

const Packet* CrossbarSwitch::candidate_for(InputId i, OutputId o) const {
  const auto& port = inputs_[i];
  if (const Packet* h = port.gl_head(); h != nullptr && h->dst == o) return h;
  if (const Packet* h = port.gb_head(o); h != nullptr) return h;
  if (const Packet* h = port.be_head(); h != nullptr && h->dst == o) return h;
  return nullptr;
}

void CrossbarSwitch::arbitrate_matched() {
  // iSLIP-style request/grant/accept over the idle ports. Every iteration:
  // each unmatched idle output runs its (QoS or baseline) arbitration over
  // the unmatched idle inputs that have a ready head for it (the GRANT
  // step); each input then ACCEPTS at most one grant — highest class first,
  // then a rotating pointer over outputs — and the pair is committed
  // immediately, so later iterations arbitrate against updated state.
  const std::uint32_t radix = config_.radix;
  StepScratch& s = scratch_;
  // Matching masks: bit i of in_matched == input i is matched (or may not
  // request); bit o of out_done == output o is settled. One uint64_t word
  // each — radix <= 64 — where the old code allocated two vector<bool>.
  std::uint64_t in_matched = 0;
  std::uint64_t out_done = 0;
  for (OutputId o = 0; o < radix; ++o) {
    if (!output_idle(o)) out_done |= 1ULL << o;
  }
  fault::FaultInjector* const fi = fault_;
  for (InputId i = 0; i < radix; ++i) {
    if (inputs_[i].busy(now_)) in_matched |= 1ULL << i;
    if (fi != nullptr && fi->port_dead(i)) in_matched |= 1ULL << i;
  }

  auto& qos_reqs = s.qos_reqs;
  auto& base_reqs = s.base_reqs;
  for (std::uint32_t iter = 0; iter < config_.match_iterations; ++iter) {
    // GRANT step: every live output picks a winner among current requesters.
    s.grant_to.assign(radix, kNoPort);     // per output
    s.grant_cls.assign(radix, TrafficClass::BestEffort);
    bool any_grant = false;
    for (OutputId o = 0; o < radix; ++o) {
      if ((out_done >> o) & 1ULL) continue;
      qos_reqs.clear();
      base_reqs.clear();
      for (InputId i = 0; i < radix; ++i) {
        if ((in_matched >> i) & 1ULL) continue;
        if (fi != nullptr && !fi->link_alive(i, o)) continue;
        const Packet* h = candidate_for(i, o);
        if (h == nullptr) continue;
        // Matched mode exposes every ready head; report each (input, output)
        // candidacy once, on the first matching round.
        if (iter == 0 && obs_ != nullptr) {
          obs_->request(now_, i, o, h->cls);
        }
        if (config_.mode == ArbitrationMode::SsvcQos) {
          qos_reqs.push_back({i, h->cls, h->length});
        } else {
          base_reqs.push_back({i, h->length, h->buffered,
                               workload_.flow(h->flow).legacy_priority});
        }
      }
      InputId w = kNoPort;
      if (config_.mode == ArbitrationMode::SsvcQos) {
        if (qos_reqs.empty()) continue;
        auto& arbiter = *qos_[o];
        arbiter.advance_to(now_);
        w = arbiter.pick(qos_reqs, now_);
        if (w == kNoPort) {  // stalled GL only
          out_done |= 1ULL << o;
          continue;
        }
        s.grant_cls[o] = arbiter.picked_class();
      } else {
        if (base_reqs.empty()) continue;
        w = baseline_[o]->pick(base_reqs, now_);
        if (w == kNoPort) continue;  // TDM off-slot
        const Packet* h = candidate_for(w, o);
        SSQ_ENSURE(h != nullptr);
        s.grant_cls[o] = h->cls;
      }
      s.grant_to[o] = w;
      any_grant = true;
    }
    if (!any_grant) break;

    // ACCEPT step: each input takes its best grant.
    for (InputId i = 0; i < radix; ++i) {
      if ((in_matched >> i) & 1ULL) continue;
      OutputId best = kNoPort;
      for (std::uint32_t off = 0; off < radix; ++off) {
        const OutputId o = (accept_out_ptr_[i] + off) % radix;
        if (s.grant_to[o] != i) continue;
        if (best == kNoPort ||
            higher_priority(s.grant_cls[o], s.grant_cls[best])) {
          best = o;
        }
      }
      if (best == kNoPort) continue;

      const TrafficClass cls = s.grant_cls[best];
      const Packet* h = candidate_for(i, best);
      SSQ_ENSURE(h != nullptr && h->cls == cls);
      const std::uint32_t length = h->length;
      if (config_.mode == ArbitrationMode::SsvcQos) {
        qos_[best]->on_grant(i, cls, length, now_);
      } else {
        // Restage the staged baselines (WRR/DWRR) on the accepted pair.
        s.restage.clear();
        s.restage.push_back({i, length, h->buffered,
                             workload_.flow(h->flow).legacy_priority});
        const InputId confirm = baseline_[best]->pick(s.restage, now_);
        SSQ_ENSURE(confirm == i);
        baseline_[best]->on_grant(i, length, now_);
      }
      commit_grant(i, best, cls);
      in_matched |= 1ULL << i;
      out_done |= 1ULL << best;
      accept_out_ptr_[i] = (best + 1) % radix;
    }
  }
}

void CrossbarSwitch::arbitrate_engine() {
  // Matching-engine allocation: build the switch-wide eligibility/backlog
  // view once, hand it to the engine, commit the returned partial
  // permutation. The per-output QoS arbiters stay idle — class priority
  // survives only in candidate_for()'s head order (GL > GB > BE).
  const std::uint32_t radix = config_.radix;
  StepScratch& s = scratch_;
  std::fill(s.eng_voq.begin(), s.eng_voq.end(), 0U);

  std::uint64_t out_free = 0;
  for (OutputId o = 0; o < radix; ++o) {
    if (output_idle(o)) out_free |= 1ULL << o;
  }

  bool any_candidate = false;
  fault::FaultInjector* const fi = fault_;
  for (InputId i = 0; i < radix; ++i) {
    const InputPort& port = inputs_[i];
    std::uint64_t cand = 0;
    if (fi == nullptr || !fi->port_dead(i)) {
      cand = port.gb_nonempty();
      if (const Packet* h = port.gl_head(); h != nullptr) {
        cand |= 1ULL << h->dst;
      }
      if (const Packet* h = port.be_head(); h != nullptr) {
        cand |= 1ULL << h->dst;
      }
      if (fi != nullptr) {
        for (std::uint64_t w = cand; w != 0; w &= w - 1) {
          const auto o = static_cast<OutputId>(std::countr_zero(w));
          if (!fi->link_alive(i, o)) cand &= ~(1ULL << o);
        }
      }
    }
    const std::uint64_t elig = port.busy(now_) ? 0 : (cand & out_free);
    s.eng_candidates[i] = cand;
    s.eng_eligible[i] = elig;
    any_candidate |= cand != 0;
    // Backlog in flits behind each candidate crosspoint: the crosspoint GB
    // queue, plus the (shared-FIFO) GL/BE buffers when their head points at
    // o. Sampling weight for QPS, retirement signal for SW-QPS.
    for (std::uint64_t w = cand; w != 0; w &= w - 1) {
      const auto o = static_cast<OutputId>(std::countr_zero(w));
      std::uint32_t backlog = port.gb_occupancy(o);
      if (const Packet* h = port.gl_head(); h != nullptr && h->dst == o) {
        backlog += port.gl_occupancy();
      }
      if (const Packet* h = port.be_head(); h != nullptr && h->dst == o) {
        backlog += port.be_occupancy();
      }
      s.eng_voq[static_cast<std::size_t>(i) * radix + o] = backlog;
    }
    if (obs_ != nullptr) {
      for (std::uint64_t w = elig; w != 0; w &= w - 1) {
        const auto o = static_cast<OutputId>(std::countr_zero(w));
        const Packet* h = candidate_for(i, o);
        SSQ_ENSURE(h != nullptr);
        obs_->request(now_, i, o, h->cls);
      }
    }
  }
  // Nothing buffered anywhere: skip the engine call entirely. Exact under
  // idle-cycle fast-forward — engines change no state on an empty view, and
  // SW-QPS retires drained window entries lazily at its next real call.
  if (!any_candidate) return;

  std::fill(s.eng_match.begin(), s.eng_match.end(), kNoPort);
  const arb::MatchView view{
      radix, std::span<const std::uint64_t>(s.eng_eligible),
      std::span<const std::uint64_t>(s.eng_candidates),
      std::span<const std::uint32_t>(s.eng_voq)};
  const std::uint32_t iters = engine_->match(view, s.eng_match);
  ++engine_stats_.cycles;
  engine_stats_.iterations += iters;

  std::uint64_t in_used = 0;
  for (OutputId o = 0; o < radix; ++o) {
    const InputId i = s.eng_match[o];
    if (i == kNoPort) continue;
    SSQ_ENSURE(i < radix && "engine matched an out-of-range input");
    SSQ_ENSURE(((s.eng_eligible[i] >> o) & 1ULL) != 0 &&
               "engine matched an ineligible pair");
    SSQ_ENSURE(((in_used >> i) & 1ULL) == 0 &&
               "engine matched an input twice");
    in_used |= 1ULL << i;
    const Packet* h = candidate_for(i, o);
    SSQ_ENSURE(h != nullptr);
    commit_grant(i, o, h->cls);
    ++engine_stats_.matches;
  }
}

void CrossbarSwitch::step() {
  scratch_.cycle = now_;
  scratch_.grants.clear();
  if (fault_ != nullptr) fault_->on_cycle(now_);
  if (scrub_ != nullptr) scrub_->on_cycle(now_);
  if (create_pending_) {
    create_pending_ = false;  // fast_forward() already created at now_
  } else {
    inject_create();
  }
  inject_admit();
  transfer();
  if (config_.pvc.preemption) preempt_scan();
  if (config_.allocation == AllocationMode::IterativeMatching) {
    if (engine_ != nullptr) {
      arbitrate_engine();
    } else {
      arbitrate_matched();
    }
  } else {
    arbitrate();
  }
  ++now_;
}

CycleRecord CrossbarSwitch::last_cycle() const noexcept {
  CycleRecord r{scratch_.cycle, {}, {}, scratch_.grants, created_, admitted_,
                delivered_};
  if (config_.allocation == AllocationMode::SingleRequest) {
    r.pending = scratch_.pending;
  } else if (engine_ != nullptr) {
    r.eligible = scratch_.eng_eligible;
  }
  return r;
}

void CrossbarSwitch::fast_forward(Cycle end) {
  SSQ_EXPECT(ff_eligible_);
  const Cycle from = now_;
  while (now_ < end && quiescent()) {
    // Fold every consumer's horizon (see event_horizon.hpp). Schedule-driven
    // consumers first: the fault plan's outage/stuck schedule and the
    // scrubber's next pass must land on full step() cycles.
    EventHorizon horizon(end);
    Cycle fault_due = kNoCycle;
    if (fault_ != nullptr) {
      fault_due = fault_->next_event(now_);
      horizon.limit(fault_due);
    }
    Cycle scrub_due = kNoCycle;
    if (scrub_ != nullptr) {
      scrub_due = scrub_->next_event();
      horizon.limit(scrub_due);
    }
    // Next cycle any injector may act. Bernoulli/OnOff sources roll their
    // RNG every cycle past start and report `now_`; deterministic kinds
    // (Periodic/BurstOnce/Trace) report their exact next event.
    Cycle min_next = kNoCycle;
    for (const auto& inj : injectors_) {
      const Cycle c = inj.next_active_cycle(now_);
      if (c < min_next) min_next = c;
    }
    horizon.limit(min_next);
    Cycle fire = kNoCycle;
    if (fault_ != nullptr && fault_->has_bitflip_rng()) {
      // Pre-roll the bitflip Bernoulli stream over the candidate window —
      // the cycles a jump would skip, plus now_ itself when the
      // creation-only path below would bypass the stepped on_cycle(). A
      // firing cycle clamps the horizon so the flip lands in a full step.
      fire = fault_->scan_fire(now_, std::max(horizon.target(), now_ + 1));
      horizon.limit(fire);
    }
    if (!horizon.due_now(now_)) {
      // Nothing is due before the horizon: nothing in an eligible idle
      // cycle touches any other state, so the clock jumps.
      ff_skipped_cycles_ += horizon.target() - now_;
      now_ = horizon.target();
      continue;
    }
    if (fault_due <= now_ || scrub_due <= now_ || fire <= now_) {
      // A fault/scrub consumer is due at now_ — its work must run inside a
      // full step() (injection before scrubbing before admission); hand
      // control back to the caller's step loop.
      break;
    }
    // Only injector work is due at now_: run creation alone.
    inject_create();
    if (live_packets_ != 0) {
      // Created at now_ — the next step() admits and arbitrates this same
      // cycle, skipping its own (already run) creation pass.
      create_pending_ = true;
      break;
    }
    // Nothing created: admission, transfer and arbitration are all no-ops
    // (no packets exist, SSVC outputs with zero requests touch nothing; the
    // fault stream for this cycle was consumed by the scan above, outage /
    // stuck / scrub work is provably absent, and GSF frame state catches up
    // retroactively in inject_admit), so the cycle is complete.
    ++ff_idle_stepped_cycles_;
    ++now_;
  }
  // Window-based probe consumers must see the jump (never traced — see
  // SwitchProbe::clock_jump), or a skipped boundary would silently stretch
  // their current window.
  if (obs_ != nullptr && now_ != from) obs_->clock_jump(from, now_);
}

void CrossbarSwitch::run(Cycle cycles) {
  const Cycle end = now_ + cycles;
  if (ff_eligible_) {
    while (now_ < end) {
      if (quiescent()) {
        fast_forward(end);
        if (now_ >= end) break;
      }
      step();
    }
    return;
  }
  while (now_ < end) step();
}

void CrossbarSwitch::warmup(Cycle cycles) {
  run(cycles);
  latency_.reset();
  wait_.reset();
  for (auto& u : usage_) u = ChannelUsage{};
  throughput_.open_window(now_);
  measuring_ = true;
}

void CrossbarSwitch::measure(Cycle cycles) {
  run(cycles);
  throughput_.close_window(now_);
  measuring_ = false;
}

}  // namespace ssq::sw
