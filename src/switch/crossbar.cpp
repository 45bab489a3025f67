#include "switch/crossbar.hpp"

#include "arb/pvc.hpp"
#include "fault/injector.hpp"
#include "fault/scrubber.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

namespace ssq::sw {

namespace {

/// The matching view's backlog of crosspoint (port, o) in flits: the
/// crosspoint GB queue, plus the (shared-FIFO) GL/BE buffers when their head
/// points at o. Sampling weight for QPS, retirement signal for SW-QPS.
std::uint32_t view_backlog(const InputPort& port, OutputId o) {
  std::uint32_t backlog = port.gb_occupancy(o);
  if (port.head(TrafficClass::GuaranteedLatency, o) != nullptr) {
    backlog += port.gl_occupancy();
  }
  if (port.head(TrafficClass::BestEffort, o) != nullptr) {
    backlog += port.be_occupancy();
  }
  return backlog;
}

}  // namespace

CrossbarSwitch::CrossbarSwitch(const SwitchConfig& config,
                               traffic::Workload workload)
    : config_(config), workload_(std::move(workload)), rng_(config.seed) {
  config_.validate();
  SSQ_EXPECT(workload_.radix() == config_.radix);
  workload_.validate();

  const std::uint32_t radix = config_.radix;
  scratch_ = StepScratch(radix);
  all_ports_ = radix == 64 ? ~0ULL : (1ULL << radix) - 1;  // no 1 << 64
  reselect_ = all_ports_;
  inputs_.reserve(radix);
  for (InputId i = 0; i < radix; ++i) {
    inputs_.emplace_back(i, radix, config_.buffers);
  }
  transmissions_.resize(radix);
  usage_.resize(radix);
  preemptions_.assign(radix, 0);

  if (config_.engine != arb::MatchKind::None) {
    // A matching engine is the whole arbitration state: it reads the matching
    // view alone, so no per-output arbiter of either kind is built. The
    // engine stream must be independent of the per-flow injector forks
    // (rng_.fork(f) below) — derive it by hashing the seed once.
    std::uint64_t sm = config_.seed ^ 0x6d61746368ULL;  // "match"
    engine_ = arb::make_engine(config_.engine, radix, config_.match_iterations,
                               splitmix64(sm));
  } else if (config_.mode == ArbitrationMode::SsvcQos) {
    qos_.reserve(radix);
    for (OutputId o = 0; o < radix; ++o) {
      qos_.push_back(std::make_unique<core::OutputQosArbiter>(
          radix, config_.ssvc, workload_.allocation_for(o),
          config_.gl_policing, config_.gl_allowance_packets));
    }
  } else {
    baseline_.reserve(radix);
    for (OutputId o = 0; o < radix; ++o) {
      // Rate-parameterised baselines receive the GB reservations; an input
      // with no reservation gets a nominal 1e-3 share where another input
      // holds one (a unit share where none does). Under TDM that share
      // rounds to no slot at small radix, so such an input starves on an
      // output that carries a reservation (TdmTest pins this).
      const auto alloc = workload_.allocation_for(o);
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

  input_flows_.resize(radix);
  accept_ptr_.assign(radix, 0);
  const auto& flows = workload_.flows();
  injectors_.reserve(flows.size());
  source_q_.resize(flows.size());
  max_backlog_.assign(flows.size(), 0);
  created_.assign(flows.size(), 0);
  created_at_open_.assign(flows.size(), 0);
  next_create_.assign(flows.size(), kNoCycle);
  create_words_ = (flows.size() + 63) / 64;
  wheel_.assign(kCreateWheel * create_words_, 0);
  overflow_.assign(create_words_, 0);
  admitted_.assign(flows.size(), 0);
  delivered_.assign(flows.size(), 0);
  throughput_.resize(flows.size());
  latency_.resize(flows.size());
  wait_.resize(flows.size());
  gsf_quota_.assign(flows.size(), 0);
  gsf_used_.assign(flows.size(), 0);
  nonempty_src_flows_.assign(radix, 0);
  for (FlowId f = 0; f < flows.size(); ++f) {
    injectors_.emplace_back(flows[f], rng_.fork(f));
    arm_create(f, 0);  // every flow is visited at cycle 0
    input_flows_[flows[f].src].push_back(f);
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
}

const InputPort& CrossbarSwitch::input(InputId i) const {
  SSQ_EXPECT(i < inputs_.size());
  return inputs_[i];
}

void CrossbarSwitch::attach_probe(obs::SwitchProbe* probe) {
  SSQ_EXPECT(probe == nullptr || probe->radix() == config_.radix);
  obs_ = probe;
  // A probe sees every refused admission visit, so nothing sleeps while one
  // is attached.
  admit_sleep_ = 0;
  // SSVC arbiters report their internals into the same probe; the class-blind
  // baselines have no QoS state worth tracing, and an engine has no arbiters.
  for (OutputId o = 0; o < qos_.size(); ++o) {
    qos_[o]->set_probe(probe, o);
  }
  if (fault_ != nullptr) fault_->set_probe(probe);
}

void CrossbarSwitch::attach_fault_injector(fault::FaultInjector* injector) {
  fault_ = injector;
  reselect_ = all_ports_;  // outages gate selection
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
  SSQ_EXPECT(config_.mode == ArbitrationMode::SsvcQos && engine_ == nullptr);
  SSQ_EXPECT(o < qos_.size());
  return *qos_[o];
}

const core::OutputQosArbiter& CrossbarSwitch::qos_arbiter(OutputId o) const {
  SSQ_EXPECT(config_.mode == ArbitrationMode::SsvcQos && engine_ == nullptr);
  SSQ_EXPECT(o < qos_.size());
  return *qos_[o];
}

bool CrossbarSwitch::output_idle(OutputId o) const {
  SSQ_EXPECT(o < config_.radix);
  return ((idle_outputs() >> o) & 1ULL) != 0;
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
  // The loop clears only the current output's bit: the copy stays valid.
  for (std::uint64_t w = active_out_; w != 0; w &= w - 1) {
    const auto o = static_cast<OutputId>(std::countr_zero(w));
    auto& t = transmissions_[o];
    if (now_ >= t.last_flit) continue;
    // validate() admits preemption only over the PVC arbiter.
    auto& pvc = static_cast<arb::PvcArbiter&>(*baseline_[o]);
    // Best waiting challenger for this output.
    std::uint32_t best_level = pvc.num_levels();
    for (InputId i = 0; i < config_.radix; ++i) {
      if (inputs_[i].busy(now_)) continue;
      if (candidate_for(i, o) == nullptr) continue;
      best_level = std::min(best_level, pvc.level(i, now_));
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
    if (inputs_[src].can_accept(victim.cls, victim.dst, transferred)) {
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
    reselect_ |= 1ULL << src;        // free this very cycle, heads changed
    admit_sleep_ &= ~(1ULL << src);  // its buffers drained
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

std::uint64_t CrossbarSwitch::window_created_packets(FlowId f) const {
  SSQ_EXPECT(f < created_.size());
  return created_[f] - created_at_open_[f];
}

std::size_t CrossbarSwitch::max_source_backlog(FlowId f) const {
  SSQ_EXPECT(f < max_backlog_.size());
  return max_backlog_[f];
}

void CrossbarSwitch::arm_create(FlowId f, Cycle c) {
  SSQ_EXPECT(c >= now_);
  next_create_[f] = c;
  if (c == kNoCycle) return;
  const std::uint64_t bit = 1ULL << (f & 63);
  if (c < now_ + kCreateWheel) {
    wheel_slot(c)[f >> 6] |= bit;
  } else {
    overflow_[f >> 6] |= bit;
    overflow_min_ = std::min(overflow_min_, c);
  }
}

void CrossbarSwitch::disarm_create(FlowId f) {
  const Cycle c = next_create_[f];
  if (c == kNoCycle) return;
  // overflow_min_ may now undershoot the earliest entry; a pull recomputes it.
  const std::uint64_t bit = 1ULL << (f & 63);
  std::uint64_t& over = overflow_[f >> 6];
  if ((over & bit) != 0) {
    over &= ~bit;
  } else {
    wheel_slot(c)[f >> 6] &= ~bit;
  }
}

void CrossbarSwitch::inject_create() {
  // Overflow entries that came within the wheel's reach move into it first:
  // one may be due now.
  if (overflow_min_ < now_ + kCreateWheel) {
    Cycle rest = kNoCycle;
    for (std::size_t k = 0; k < create_words_; ++k) {
      for (std::uint64_t w = overflow_[k]; w != 0; w &= w - 1) {
        const auto f = static_cast<FlowId>(k * 64) +
                       static_cast<FlowId>(std::countr_zero(w));
        const Cycle c = next_create_[f];
        if (c < now_ + kCreateWheel) {
          overflow_[k] &= ~(1ULL << (f & 63));
          wheel_slot(c)[k] |= 1ULL << (f & 63);
        } else {
          rest = std::min(rest, c);
        }
      }
    }
    overflow_min_ = rest;
  }
  // Packet creation into source queues for the flows due now, in ascending
  // flow order. A re-arm lands 1 .. kCreateWheel - 1 cycles ahead or in the
  // overflow, never in this slot, so each word is cleared as it is taken.
  std::uint64_t* const slot = wheel_slot(now_);
  for (std::size_t k = 0; k < create_words_; ++k) {
    std::uint64_t due = slot[k];
    if (due == 0) continue;
    slot[k] = 0;
    for (; due != 0; due &= due - 1) {
      const auto f = static_cast<FlowId>(k * 64) +
                     static_cast<FlowId>(std::countr_zero(due));
      SSQ_ENSURE(next_create_[f] == now_);
      auto& inj = injectors_[f];
      const std::uint32_t n = inj.packets_at(now_);
      for (std::uint32_t j = 0; j < n; ++j) {
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
        // The backlog only grows at a push, so sampling after pushes (here
        // and at the preempt re-queue) sees the same running maximum as
        // sampling every cycle did.
        created_[f] += n;
        live_packets_ += n;
        max_backlog_[f] = std::max(max_backlog_[f], source_q_[f].size());
      }
      // Re-arm after the length draws: they follow this cycle's trials in
      // the flow's stream.
      arm_create(f, inj.next_event(now_ + 1, now_ + 1 + kCreatePreroll));
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
  // are unchanged. Sleeping inputs (admit_sleep_) are skipped too: their
  // visit would refuse every flow again.
  fault::FaultInjector* const fi = fault_;
  for (std::uint64_t mw = admit_mask_ & ~admit_sleep_; mw != 0; mw &= mw - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(mw));
    const auto& flows = input_flows_[i];
    // A dead input port admits nothing; its traffic backs up at the source.
    if (fi != nullptr && fi->port_dead(i)) continue;
    const std::size_t nf = flows.size();
    bool all_full = true;  // every non-empty flow refused by can_accept()
    for (std::size_t k = 0; k < nf; ++k) {
      // accept_ptr_ < nf and k < nf, so one conditional subtract replaces
      // the modulo (an integer division per input per cycle on the hot path).
      std::size_t idx = accept_ptr_[i] + k;
      if (idx >= nf) idx -= nf;
      const FlowId f = flows[idx];
      if (source_q_[f].empty()) continue;
      if (gsf_quota_[f] > 0 &&
          (gsf_barrier || gsf_used_[f] >= gsf_quota_[f])) {
        all_full = false;  // the frame clock, not a drain, lifts this
        continue;  // GSF: out of frame quota, or inside the barrier window
      }
      const Packet& head = source_q_[f].front();
      if (!inputs_[i].can_accept(head.cls, head.dst, head.length)) {
        if (obs_ != nullptr) {
          obs_->admit_blocked(now_, f, head.src, head.dst, head.cls,
                              head.length);
        }
        continue;
      }
      if (obs_ != nullptr) {
        obs_->packet_buffered(now_, f, head.id, head.src, head.dst, head.cls,
                              head.length);
      }
      inputs_[i].accept(std::move(source_q_[f].front()), now_);
      reselect_ |= 1ULL << i;  // a new head may have appeared
      ++admitted_[f];
      source_q_[f].pop_front();
      note_source_pop(f, i);
      if (gsf_quota_[f] > 0) ++gsf_used_[f];
      accept_ptr_[i] = idx + 1 == nf ? 0 : idx + 1;
      all_full = false;
      break;
    }
    if (all_full && obs_ == nullptr) admit_sleep_ |= 1ULL << i;
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
    if (engine_ != nullptr) drain_view_cell(t.pkt.src, t.pkt.cls, t.pkt.dst);
    admit_sleep_ &= ~(1ULL << t.pkt.src);  // room for a refused head, maybe
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
  active_out_ &= ~(1ULL << o);
  done_out_ |= 1ULL << o;
  // The port is busy through this cycle and free from the next.
  reselect_next_ |= 1ULL << src;

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
      if (inputs_[i].head(TrafficClass::GuaranteedLatency, o) != nullptr) {
        return;  // yield the channel to a fresh (GL-winning) arbitration
      }
    }
    if (const Packet* head = inputs_[src].head(cls, o); head != nullptr) {
      qos_[o]->advance_to(now_);
      // GL chaining is also policed: an over-budget GL class cannot chain.
      if (cls != TrafficClass::GuaranteedLatency ||
          qos_[o]->gl_tracker().eligible(now_)) {
        qos_[o]->on_grant(src, cls, head->length, now_);
        commit_grant(src, o, cls, /*chained=*/true);
      }
    }
  }
}

void CrossbarSwitch::start_transmission(Packet&& pkt, OutputId o,
                                        Cycle first_flit) {
  auto& t = transmissions_[o];
  SSQ_EXPECT((active_out_ & (1ULL << o)) == 0);
  const Cycle last = first_flit + pkt.length - 1;
  inputs_[pkt.src].set_free_at(last + 1);
  t.pkt = std::move(pkt);
  t.first_flit = first_flit;
  t.last_flit = last;
  active_out_ |= 1ULL << o;
}

PendingRequest CrossbarSwitch::select_one(InputId i, std::uint64_t idle,
                                          Cycle now) const {
  SSQ_EXPECT(i < inputs_.size());
  const auto& port = inputs_[i];
  fault::FaultInjector* const fi = fault_;
  if (port.busy(now)) return {};
  if (fi != nullptr && fi->port_dead(i)) return {};  // port outage
  const auto link_ok = [fi, i](OutputId o) {
    return fi == nullptr || fi->link_alive(i, o);
  };
  const auto request = [](OutputId o, const Packet& h) {
    return PendingRequest{o, h.cls, h.length, h.buffered, h.flow};
  };
  // 1) GL head, if its channel can arbitrate this cycle.
  if (const Packet* h = port.gl_head();
      h != nullptr && ((idle >> h->dst) & 1) != 0 && link_ok(h->dst)) {
    return request(h->dst, *h);
  }
  // 2) GB heads, rotating over outputs for per-port fairness. The port's
  // non-empty bitmask, masked to idle outputs, narrows the rotating scan to
  // servable crosspoint queues: the outputs at or above the pointer first,
  // then the ones below it (same visit order as scanning every output from
  // gb_pointer()).
  if (const std::uint64_t occ = port.gb_nonempty() & idle; occ != 0) {
    const std::uint64_t below = (1ULL << port.gb_pointer()) - 1;  // ptr < 64
    for (std::uint64_t w : {occ & ~below, occ & below}) {
      for (; w != 0; w &= w - 1) {
        const auto o = static_cast<OutputId>(std::countr_zero(w));
        if (link_ok(o)) {
          return request(o, *port.head(TrafficClass::GuaranteedBandwidth, o));
        }
      }
    }
  }
  // 3) BE head.
  if (const Packet* h = port.be_head();
      h != nullptr && ((idle >> h->dst) & 1) != 0 && link_ok(h->dst)) {
    return request(h->dst, *h);
  }
  return {};
}

void CrossbarSwitch::select_requests() {
  // Requests are kept across cycles; only an input whose selection inputs
  // changed is selected again. A kept request may name a busy output: every
  // reader of pending, masks and requested intersects them with idle (the
  // arbitration loop, the probe's request events, the checker), and such a
  // request is the one select_one() asserts once that output is idle again.
  // Each rule below marks input i in reselect_:
  //   - a packet was admitted into one of i's buffers (inject_admit), this
  //     cycle;
  //   - i won an output (commit_grant): it turned busy and popped a head
  //     (and maybe moved its GB pointer); next cycle, or this one for a
  //     chained grant (made inside complete(), while i is still busy);
  //   - i lost an output that was granted and holds a head for another
  //     output (commit_grant), which it may request instead; next cycle. A
  //     loser whose heads all go to the granted output keeps its request:
  //     from scratch it would assert none until that output is idle, and
  //     then this same request;
  //   - i's transmission completed (complete()), next cycle — the port is
  //     busy through the current one; a preemption frees it this cycle;
  //   - an output turned idle that i holds a head for and does not request
  //     (wanted_by, below): an input already requesting it holds the right
  //     request;
  //   - a fault edge changed i's port or one of its crosspoints
  //     (FaultInjector::outage_edges()), or a fault injector was attached
  //     or detached (every input).
  // Nothing else changes what select_one() reads: heads, the GB pointer and
  // busy ports move only at admission, grants and completions, and an
  // output turning busy matters only to the inputs that requested it.
  StepScratch& s = scratch_;
  // An output that turned idle marks the inputs holding a head for it that
  // request something else or nothing.
  const std::uint64_t idle = idle_outputs();
  for (std::uint64_t w = idle & ~s.idle; w != 0; w &= w - 1) {
    const auto o = static_cast<OutputId>(std::countr_zero(w));
    reselect_ |= s.wanted_by[o] & ~s.masks[o].any();
  }
  s.idle = idle;
  for (std::uint64_t w = reselect_; w != 0; w &= w - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(w));
    const PendingRequest p = select_one(i, idle, now_);
    const std::uint64_t want = inputs_[i].head_outputs();
    for (std::uint64_t d = want ^ s.want[i]; d != 0; d &= d - 1) {
      s.wanted_by[static_cast<OutputId>(std::countr_zero(d))] ^= 1ULL << i;
    }
    s.want[i] = want;
    PendingRequest& old = s.pending[i];
    if (old.out != p.out || old.cls != p.cls) {
      if (old.out != kNoPort) {
        core::ClassMasks& m = s.masks[old.out];
        m.remove(i);
        if (m.any() == 0) s.requested &= ~(1ULL << old.out);
      }
      if (p.out != kNoPort) {
        s.masks[p.out].add(i, p.cls);
        s.requested |= 1ULL << p.out;
      }
    }
    old = p;
  }
  reselect_ = reselect_next_;
  reselect_next_ = 0;
}

void CrossbarSwitch::arbitrate() {
  StepScratch& s = scratch_;
  select_requests();
  if (obs_ != nullptr) {
    // A kept request on a busy output is not asserted this cycle.
    for (InputId i = 0; i < s.pending.size(); ++i) {
      const OutputId o = s.pending[i].out;
      if (o != kNoPort && ((s.idle >> o) & 1) != 0) {
        obs_->request(now_, i, o, s.pending[i].cls);
      }
    }
  }

  // Only requested idle outputs can grant; an un-requested output's SSVC
  // advance_to() stays lazy. Bit order == ascending o.
  const bool ssvc = config_.mode == ArbitrationMode::SsvcQos;
  for (std::uint64_t w = s.requested & s.idle; w != 0; w &= w - 1) {
    const auto o = static_cast<OutputId>(std::countr_zero(w));
    InputId winner = kNoPort;
    if (ssvc) {
      // SSVC resolves the kept class masks in one pick_masked().
      auto& arbiter = *qos_[o];
      arbiter.advance_to(now_);
      winner = arbiter.pick_masked(s.masks[o], now_);
      if (winner == kNoPort) continue;  // stalled GL only
      SSQ_ENSURE(arbiter.picked_class() == s.pending[winner].cls);
      arbiter.on_grant(winner, s.pending[winner].cls,
                       s.pending[winner].length, now_);
    } else {
      // A baseline arbiter takes the requesters as a list, in input order.
      s.base_reqs.clear();
      for (std::uint64_t m = s.masks[o].any(); m != 0; m &= m - 1) {
        const auto i = static_cast<InputId>(std::countr_zero(m));
        const PendingRequest& p = s.pending[i];
        s.base_reqs.push_back({i, p.length, p.buffered,
                               workload_.flow(p.flow).legacy_priority});
      }
      arb::Arbiter& arbiter = *baseline_[o];
      winner = arbiter.pick(s.base_reqs, now_);
      if (winner == kNoPort) continue;  // TDM: off-slot or idle slot owner
      if (config_.pvc.preemption) {
        // validate() admits preemption only over the PVC arbiter. Read the
        // level preempt_scan() compares challengers against before
        // on_grant() raises it.
        transmissions_[o].granted_level =
            static_cast<arb::PvcArbiter&>(arbiter).level(winner, now_);
      }
      arbiter.on_grant(winner, s.pending[winner].length, now_);
    }
    commit_grant(winner, o, s.pending[winner].cls, /*chained=*/false);
  }
}

void CrossbarSwitch::commit_grant(InputId winner, OutputId o,
                                  TrafficClass cls, bool chained) {
  Packet pkt = inputs_[winner].pop(cls, o);
  pkt.granted = now_;
  scratch_.grants.push_back({winner, o, cls, chained});
  // The winner selects again, and its matching-view row is rebuilt, from the
  // next selection or view on; so does every other requester of o that holds
  // a head for another output, while the rest keep their request on o
  // (select_requests). The masks are empty under an engine.
  std::uint64_t mark = 1ULL << winner;
  for (std::uint64_t w = scratch_.masks[o].any() & ~mark; w != 0;
       w &= w - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(w));
    if ((inputs_[i].head_outputs() & ~(1ULL << o)) != 0) mark |= 1ULL << i;
  }
  reselect_ |= mark;
  // Arbitration occupies arbitration_cycles (1 for SSVC, 2 for the legacy
  // 4-level design [14]); flits flow once it completes. A chained packet
  // skips arbitration and follows its predecessor's last flit.
  const Cycle arb_cycles = chained ? 0 : config_.arbitration_cycles;
  const Cycle first_flit = now_ + (chained ? 1 : arb_cycles);
  if (measuring_) {
    usage_[o].arbitration_cycles += arb_cycles;
    usage_[o].transfer_cycles += pkt.length;
  }
  if (obs_ != nullptr) {
    obs_->grant(now_, winner, o, cls, pkt.flow, pkt.id, pkt.length,
                now_ - pkt.buffered, chained);
    obs_->transfer_start(first_flit, winner, o, cls, pkt.flow, pkt.id,
                         pkt.length);
  }
  start_transmission(std::move(pkt), o, first_flit);
  if (cls == TrafficClass::GuaranteedBandwidth) {
    inputs_[winner].advance_gb_pointer(o);
  }
}

const Packet* CrossbarSwitch::candidate_for(InputId i, OutputId o) const {
  SSQ_EXPECT(i < inputs_.size());
  const InputPort& port = inputs_[i];
  const Packet* h = port.head(TrafficClass::GuaranteedLatency, o);
  if (h == nullptr) h = port.head(TrafficClass::GuaranteedBandwidth, o);
  if (h == nullptr) h = port.head(TrafficClass::BestEffort, o);
  return h;
}

void CrossbarSwitch::drain_view_cell(InputId i, TrafficClass cls,
                                     OutputId dst) {
  // The drained buffer counts toward one cell of row i: its own crosspoint's
  // for a GB queue, the head's crosspoint for a shared FIFO. A row marked
  // for a rebuild is rewritten by fill_view() anyway.
  const InputPort& port = inputs_[i];
  OutputId o = dst;
  if (cls != TrafficClass::GuaranteedBandwidth) {
    const Packet* h = cls == TrafficClass::GuaranteedLatency ? port.gl_head()
                                                             : port.be_head();
    if (h == nullptr) return;
    o = h->dst;
  }
  StepScratch& s = scratch_;
  if (((s.candidates[i] >> o) & 1ULL) == 0) return;  // the cell reads 0
  s.voq[static_cast<std::size_t>(i) * config_.radix + o] =
      view_backlog(port, o);
}

bool CrossbarSwitch::fill_view() {
  const std::uint32_t radix = config_.radix;
  StepScratch& s = scratch_;
  fault::FaultInjector* const fi = fault_;
  // Rebuild the rows of the inputs whose heads or crosspoints changed since
  // the last view: the reselect_ marks of admission, a grant's winner, a
  // preemption and a fault edge or attach. A completion's mark (the port
  // turns free) changes only busy(), which eligible reads below.
  for (std::uint64_t w = reselect_; w != 0; w &= w - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(w));
    const InputPort& port = inputs_[i];
    std::uint64_t cand = 0;
    if (fi == nullptr || !fi->port_dead(i)) {
      cand = port.head_outputs();
      if (fi != nullptr) {
        for (std::uint64_t m = cand; m != 0; m &= m - 1) {
          const auto o = static_cast<OutputId>(std::countr_zero(m));
          if (!fi->link_alive(i, o)) cand &= ~(1ULL << o);
        }
      }
    }
    const std::uint64_t left = s.candidates[i] & ~cand;
    s.candidates[i] = cand;
    if (cand != 0) {
      s.candidate_rows |= 1ULL << i;
    } else {
      s.candidate_rows &= ~(1ULL << i);
      s.eligible[i] = 0;  // rows without candidates are not derived below
    }
    // A cell that left the candidate set reads 0 again: SW-QPS reads the
    // backlog of window pairs that are no longer candidates.
    std::uint32_t* const row =
        s.voq.data() + static_cast<std::size_t>(i) * radix;
    for (std::uint64_t m = left; m != 0; m &= m - 1) {
      row[std::countr_zero(m)] = 0;
    }
    for (std::uint64_t m = cand; m != 0; m &= m - 1) {
      const auto o = static_cast<OutputId>(std::countr_zero(m));
      row[o] = view_backlog(port, o);
    }
  }
  reselect_ = 0;
  reselect_next_ = 0;
  const std::uint64_t idle = idle_outputs();
  for (std::uint64_t w = s.candidate_rows; w != 0; w &= w - 1) {
    const auto i = static_cast<InputId>(std::countr_zero(w));
    s.eligible[i] = inputs_[i].busy(now_) ? 0 : (s.candidates[i] & idle);
  }
  return s.candidate_rows != 0;
}

void CrossbarSwitch::arbitrate_engine() {
  // Matching-engine allocation: hand the matching view to the engine and
  // commit the returned partial permutation. No per-output arbiter exists
  // under an engine — class priority survives only in candidate_for()'s
  // head order (GL > GB > BE).
  const std::uint32_t radix = config_.radix;
  StepScratch& s = scratch_;
  const bool any_candidate = fill_view();
  if (obs_ != nullptr) {
    for (InputId i = 0; i < radix; ++i) {
      for (std::uint64_t w = s.eligible[i]; w != 0; w &= w - 1) {
        const auto o = static_cast<OutputId>(std::countr_zero(w));
        obs_->request(now_, i, o, candidate_for(i, o)->cls);
      }
    }
  }
  // Nothing buffered anywhere: skip the engine call entirely. Exact under
  // idle-cycle fast-forward — engines change no state on an empty view, and
  // SW-QPS retires drained window entries lazily at its next real call.
  if (!any_candidate) return;

  const arb::MatchView view{radix,
                            std::span<const std::uint64_t>(s.eligible),
                            std::span<const std::uint64_t>(s.candidates),
                            std::span<const std::uint32_t>(s.voq)};
  const std::uint32_t iters = engine_->match(view, s.match);
  ++engine_stats_.cycles;
  engine_stats_.iterations += iters;

  std::uint64_t in_used = 0;
  for (OutputId o = 0; o < radix; ++o) {
    const InputId i = s.match[o];
    if (i == kNoPort) continue;
    SSQ_ENSURE(i < radix && "engine matched an out-of-range input");
    SSQ_ENSURE(((s.eligible[i] >> o) & 1ULL) != 0 &&
               "engine matched an ineligible pair");
    SSQ_ENSURE(((in_used >> i) & 1ULL) == 0 &&
               "engine matched an input twice");
    in_used |= 1ULL << i;
    const Packet* h = candidate_for(i, o);
    SSQ_ENSURE(h != nullptr);
    commit_grant(i, o, h->cls, /*chained=*/false);
    ++engine_stats_.matches;
  }
}

void CrossbarSwitch::step() {
  scratch_.cycle = now_;
  scratch_.grants.clear();
  if (fault_ != nullptr) {
    fault_->on_cycle(now_);
    reselect_ |= fault_->outage_edges();
  }
  if (scrub_ != nullptr) scrub_->on_cycle(now_);
  inject_create();
  inject_admit();
  transfer();
  if (config_.pvc.preemption) preempt_scan();
  if (engine_ != nullptr) {
    arbitrate_engine();
  } else {
    arbitrate();
  }
  // Outputs whose last flit moved this cycle are idle from the next one.
  done_out_ = 0;
  ++now_;
}

CycleRecord CrossbarSwitch::last_cycle() const noexcept {
  CycleRecord r;
  r.cycle = scratch_.cycle;
  r.grants = scratch_.grants;
  r.created = created_;
  r.admitted = admitted_;
  r.delivered = delivered_;
  if (engine_ != nullptr) {
    r.eligible = scratch_.eligible;
    r.candidates = scratch_.candidates;
    r.voq = scratch_.voq;
  } else {
    r.pending = scratch_.pending;
    r.masks = scratch_.masks;
    r.requested = scratch_.requested;
    r.idle = scratch_.idle;
  }
  return r;
}

void CrossbarSwitch::fast_forward(Cycle end) {
  SSQ_EXPECT(config_.fast_forward);
  if (now_ >= end || !quiescent()) return;
  // Fold every consumer's horizon (see event_horizon.hpp). Schedule-driven
  // consumers first: the fault plan's outage/stuck schedule and the
  // scrubber's next pass must land on full step() cycles.
  EventHorizon horizon(end);
  if (fault_ != nullptr) horizon.limit(fault_->next_event(now_));
  if (scrub_ != nullptr) horizon.limit(scrub_->next_event());
  // Injectors pre-roll their streams up to the horizon folded so far and
  // report their next creation cycle; the calendar keeps the answer, and
  // only a flow whose answer moved is filed again.
  Cycle next_min = kNoCycle;
  for (FlowId f = 0; f < injectors_.size(); ++f) {
    const Cycle c = injectors_[f].next_event(now_, horizon.target());
    if (c != next_create_[f]) {
      disarm_create(f);
      arm_create(f, c);
    }
    next_min = std::min(next_min, c);
  }
  horizon.limit(next_min);
  if (fault_ != nullptr && fault_->has_bitflip_rng()) {
    // Pre-roll the bitflip Bernoulli stream over the cycles a jump would
    // skip; a firing cycle clamps the horizon so the flip lands in a full
    // step.
    horizon.limit(fault_->scan_fire(now_, horizon.target()));
  }
  // Something is due this very cycle: the caller's step() runs it.
  if (horizon.due_now(now_)) return;
  // Nothing is due before the horizon, and an idle cycle touches no other
  // state (no arbiter, SSVC or baseline, changes without a request), so the
  // clock jumps. Window-based probe
  // consumers must see the jump (never traced — see SwitchProbe::clock_jump),
  // or a skipped boundary would silently stretch their current window.
  const Cycle from = now_;
  now_ = horizon.target();
  ff_skipped_cycles_ += now_ - from;
  if (obs_ != nullptr) obs_->clock_jump(from, now_);
}

void CrossbarSwitch::run(Cycle cycles) {
  run(cycles, [] { return true; }, [](Cycle, Cycle) {});
}

void CrossbarSwitch::warmup(Cycle cycles) {
  run(cycles);
  latency_.reset();
  wait_.reset();
  for (auto& u : usage_) u = ChannelUsage{};
  created_at_open_ = created_;
  throughput_.open_window(now_);
  measuring_ = true;
}

void CrossbarSwitch::measure(Cycle cycles) {
  run(cycles);
  throughput_.close_window(now_);
  measuring_ = false;
}

}  // namespace ssq::sw
