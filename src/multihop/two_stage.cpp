#include "multihop/two_stage.hpp"

#include <algorithm>
#include <utility>

#include "core/params.hpp"

namespace ssq::multihop {

namespace {

constexpr std::size_t cls_idx(TrafficClass c) {
  return static_cast<std::size_t>(c);
}

}  // namespace

void TwoStageConfig::validate() const {
  SSQ_EXPECT(groups >= 2 && groups <= 64);
  SSQ_EXPECT(nodes_per_group >= 1 && nodes_per_group <= 64);
  SSQ_EXPECT(dests >= 1 && dests <= 64);
  SSQ_EXPECT(hop_buffer_flits >= 1);
  ssvc.validate();
}

TwoStageNetwork::TwoStageNetwork(const TwoStageConfig& config,
                                 std::vector<HopFlow> flows)
    : config_(config), flows_(std::move(flows)), rng_(config.seed) {
  config_.validate();

  // Per-node aggregate reservations (stage-1 uplink crosspoints) and
  // per-(group, dest) aggregates (stage-2 crosspoints — the shared state).
  std::vector<std::vector<double>> uplink_rate(
      config_.groups, std::vector<double>(config_.nodes_per_group, 0.0));
  std::vector<std::vector<double>> dest_rate(
      config_.dests, std::vector<double>(config_.groups, 0.0));
  std::uint32_t max_len = 1;
  for (const auto& f : flows_) {
    SSQ_EXPECT(f.node < config_.num_nodes());
    SSQ_EXPECT(f.dest < config_.dests);
    SSQ_EXPECT(f.packet_len >= 1);
    SSQ_EXPECT(f.cls != TrafficClass::GuaranteedLatency &&
               "the composed network models BE/GB only — maintaining GL "
               "bounds across hops is exactly the complexity §4.4 warns "
               "about");
    if (f.cls == TrafficClass::GuaranteedBandwidth) {
      SSQ_EXPECT(f.reserved_rate > 0.0);
      const std::uint32_t g = f.node / config_.nodes_per_group;
      uplink_rate[g][f.node % config_.nodes_per_group] += f.reserved_rate;
      dest_rate[f.dest][g] += f.reserved_rate;
    }
    max_len = std::max(max_len, f.packet_len);
  }

  for (std::uint32_t g = 0; g < config_.groups; ++g) {
    core::OutputAllocation alloc =
        core::OutputAllocation::none(config_.nodes_per_group);
    alloc.gb_rate = uplink_rate[g];
    alloc.gb_packet_len = max_len;
    SSQ_EXPECT(alloc.admissible(config_.nodes_per_group) &&
               "group over-subscribes its uplink");
    uplink_arb_.push_back(std::make_unique<core::OutputQosArbiter>(
        config_.nodes_per_group, config_.ssvc, std::move(alloc)));
  }
  for (OutputId d = 0; d < config_.dests; ++d) {
    core::OutputAllocation alloc = core::OutputAllocation::none(config_.groups);
    alloc.gb_rate = dest_rate[d];
    alloc.gb_packet_len = max_len;
    SSQ_EXPECT(alloc.admissible(config_.groups) &&
               "destination over-subscribed");
    dest_arb_.push_back(std::make_unique<core::OutputQosArbiter>(
        config_.groups, config_.ssvc, std::move(alloc)));
  }

  uplink_.resize(config_.groups);
  dest_ch_.resize(config_.dests);
  node_buf_.resize(config_.num_nodes());
  s2_buf_.assign(config_.groups, std::vector<ClassBuffers>(config_.dests));
  s2_reserved_.assign(config_.groups,
                      std::vector<std::uint32_t>(config_.dests, 0));
  s2_reserved_be_.assign(config_.groups, 0);
  s2_input_free_at_.assign(config_.groups, 0);
  node_free_at_.assign(config_.num_nodes(), 0);

  node_flows_.resize(config_.num_nodes());
  accept_ptr_.assign(config_.num_nodes(), 0);
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    node_flows_[flows_[f].node].push_back(f);
  }
  source_q_.resize(flows_.size());
  delivered_.assign(flows_.size(), 0);
  throughput_.resize(flows_.size());
  latency_.resize(flows_.size());
  injectors_.reserve(flows_.size());
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    traffic::FlowSpec spec;
    spec.src = 0;  // unused by the injector
    spec.dst = 0;
    spec.cls = flows_[f].cls;
    spec.reserved_rate = flows_[f].reserved_rate;
    spec.len_min = spec.len_max = flows_[f].packet_len;
    spec.inject = flows_[f].inject;
    spec.inject_rate = flows_[f].inject_rate;
    injectors_.emplace_back(spec, rng_.fork(static_cast<std::uint64_t>(f)));
  }
  throughput_.open_window(0);
}

const HopFlow& TwoStageNetwork::flow(std::size_t f) const {
  SSQ_EXPECT(f < flows_.size());
  return flows_[f];
}

std::uint64_t TwoStageNetwork::delivered_packets(std::size_t f) const {
  SSQ_EXPECT(f < delivered_.size());
  return delivered_[f];
}

void TwoStageNetwork::inject() {
  for (std::size_t f = 0; f < injectors_.size(); ++f) {
    auto& inj = injectors_[f];
    const std::uint32_t n = inj.packets_at(now_);
    for (std::uint32_t k = 0; k < n; ++k) {
      sw::Packet p;
      p.id = next_id_++;
      p.flow = static_cast<FlowId>(f);
      p.src = flows_[f].node;
      p.dst = flows_[f].dest;
      p.cls = flows_[f].cls;
      p.length = inj.draw_length();
      p.created = now_;
      source_q_[f].push_back(std::move(p));
    }
  }
  // One packet per node per cycle into the node's class buffers,
  // round-robin over the node's flows so admission itself is fair.
  for (std::uint32_t node = 0; node < config_.num_nodes(); ++node) {
    const auto& nf = node_flows_[node];
    if (nf.empty()) continue;
    for (std::size_t k = 0; k < nf.size(); ++k) {
      const std::size_t f = nf[(accept_ptr_[node] + k) % nf.size()];
      if (source_q_[f].empty()) continue;
      auto& buf = node_buf_[node];
      sw::Packet& head = source_q_[f].front();
      const std::size_t c = cls_idx(head.cls);
      if (buf.occ[c] + head.length > config_.hop_buffer_flits) continue;
      head.buffered = now_;
      buf.occ[c] += head.length;
      buf.q[c].push_back(std::move(head));
      source_q_[f].pop_front();
      accept_ptr_[node] = (accept_ptr_[node] + k + 1) % nf.size();
      break;
    }
  }
}

void TwoStageNetwork::stage2_transfer_and_arbitrate() {
  // Transfer on destination channels; completions are end-to-end deliveries.
  for (OutputId d = 0; d < config_.dests; ++d) {
    auto& ch = dest_ch_[d];
    if (ch.active && now_ >= ch.first_flit) {
      throughput_.record_flit(ch.pkt.flow, now_);
      if (now_ == ch.last_flit) {
        ch.pkt.delivered = now_;
        if (measuring_) {
          latency_.record(ch.pkt.flow,
                          static_cast<double>(now_ - ch.pkt.buffered));
        }
        ++delivered_[ch.pkt.flow];
        ch.active = false;
      }
    }
  }

  // Arbitrate free destination channels among the uplink inputs.
  std::vector<core::ClassRequest> reqs;
  for (OutputId d = 0; d < config_.dests; ++d) {
    if (dest_ch_[d].free_at > now_) continue;
    reqs.clear();
    // Head selection per uplink input: GB queue for this dest, else the
    // shared BE queue if its head targets this dest.
    for (std::uint32_t g = 0; g < config_.groups; ++g) {
      if (s2_input_free_at_[g] > now_) continue;
      const auto& bufs = s2_buf_[g][d];
      const auto& gbq = bufs.q[cls_idx(TrafficClass::GuaranteedBandwidth)];
      if (!gbq.empty()) {
        reqs.push_back({g, TrafficClass::GuaranteedBandwidth,
                        gbq.front().length});
        continue;
      }
      const auto& beq =
          s2_buf_[g][0].q[cls_idx(TrafficClass::BestEffort)];  // shared BE
      if (!beq.empty() && beq.front().dst == d) {
        reqs.push_back({g, TrafficClass::BestEffort, beq.front().length});
      }
    }
    if (reqs.empty()) continue;
    auto& arb = *dest_arb_[d];
    arb.advance_to(now_);
    const InputId g = arb.pick(reqs, now_);
    if (g == kNoPort) continue;
    const TrafficClass cls = arb.picked_class();
    arb.on_grant(g, cls, 1, now_);

    auto& bufs = cls == TrafficClass::GuaranteedBandwidth
                     ? s2_buf_[g][d]
                     : s2_buf_[g][0];
    auto& q = bufs.q[cls_idx(cls)];
    SSQ_ENSURE(!q.empty());
    sw::Packet pkt = std::move(q.front());
    q.pop_front();
    bufs.occ[cls_idx(cls)] -= pkt.length;
    pkt.granted = now_;
    auto& ch = dest_ch_[d];
    ch.first_flit = now_ + 1;
    ch.last_flit = now_ + pkt.length;
    ch.free_at = ch.last_flit + 1;
    s2_input_free_at_[g] = ch.last_flit + 1;
    ch.pkt = std::move(pkt);
    ch.active = true;
  }
}

void TwoStageNetwork::stage1_transfer_and_arbitrate() {
  // Uplink transfers; a completing packet lands in its stage-2 buffer
  // (space was reserved at grant time).
  for (std::uint32_t g = 0; g < config_.groups; ++g) {
    auto& ch = uplink_[g];
    if (ch.active && now_ == ch.last_flit) {
      const OutputId d = ch.pkt.dst;
      const std::size_t c = cls_idx(ch.pkt.cls);
      const std::uint32_t len = ch.pkt.length;
      auto& bufs = ch.pkt.cls == TrafficClass::GuaranteedBandwidth
                       ? s2_buf_[g][d]
                       : s2_buf_[g][0];
      bufs.occ[c] += len;
      if (ch.pkt.cls == TrafficClass::GuaranteedBandwidth) {
        SSQ_ENSURE(s2_reserved_[g][d] >= len);
        s2_reserved_[g][d] -= len;
      } else {
        SSQ_ENSURE(s2_reserved_be_[g] >= len);
        s2_reserved_be_[g] -= len;
      }
      bufs.q[c].push_back(std::move(ch.pkt));
      ch.active = false;
    }
  }

  // Arbitrate free uplinks among the group's nodes (credit-checked).
  std::vector<core::ClassRequest> reqs;
  for (std::uint32_t g = 0; g < config_.groups; ++g) {
    if (uplink_[g].free_at > now_) continue;
    reqs.clear();
    for (std::uint32_t local = 0; local < config_.nodes_per_group; ++local) {
      const std::uint32_t node = g * config_.nodes_per_group + local;
      if (node_free_at_[node] > now_) continue;
      auto& buf = node_buf_[node];
      // GB ahead of BE at the node; credit check against the stage-2 buffer.
      for (TrafficClass cls : {TrafficClass::GuaranteedBandwidth,
                               TrafficClass::BestEffort}) {
        const auto& q = buf.q[cls_idx(cls)];
        if (q.empty()) continue;
        const sw::Packet& head = q.front();
        const auto& s2 = cls == TrafficClass::GuaranteedBandwidth
                             ? s2_buf_[g][head.dst]
                             : s2_buf_[g][0];
        const std::uint32_t reserved =
            cls == TrafficClass::GuaranteedBandwidth
                ? s2_reserved_[g][head.dst]
                : s2_reserved_be_[g];
        if (s2.occ[cls_idx(cls)] + reserved + head.length >
            config_.hop_buffer_flits) {
          continue;  // no credit downstream
        }
        reqs.push_back({local, cls, head.length});
        break;
      }
    }
    if (reqs.empty()) continue;
    auto& arb = *uplink_arb_[g];
    arb.advance_to(now_);
    const InputId local = arb.pick(reqs, now_);
    if (local == kNoPort) continue;
    const TrafficClass cls = arb.picked_class();
    arb.on_grant(local, cls, 1, now_);

    const std::uint32_t node = g * config_.nodes_per_group + local;
    auto& buf = node_buf_[node];
    auto& q = buf.q[cls_idx(cls)];
    sw::Packet pkt = std::move(q.front());
    q.pop_front();
    buf.occ[cls_idx(cls)] -= pkt.length;

    // Reserve stage-2 space until the packet lands there (credit).
    if (cls == TrafficClass::GuaranteedBandwidth) {
      s2_reserved_[g][pkt.dst] += pkt.length;
    } else {
      s2_reserved_be_[g] += pkt.length;
    }

    auto& ch = uplink_[g];
    ch.first_flit = now_ + 1;
    ch.last_flit = now_ + pkt.length;
    ch.free_at = ch.last_flit + 1;
    node_free_at_[node] = ch.last_flit + 1;
    ch.pkt = std::move(pkt);
    ch.active = true;
  }
}

void TwoStageNetwork::step() {
  inject();
  stage2_transfer_and_arbitrate();
  stage1_transfer_and_arbitrate();
  ++now_;
}

void TwoStageNetwork::run(Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) step();
}

void TwoStageNetwork::warmup(Cycle cycles) {
  run(cycles);
  latency_.reset();
  throughput_.open_window(now_);
  measuring_ = true;
}

void TwoStageNetwork::measure(Cycle cycles) {
  run(cycles);
  throughput_.close_window(now_);
  measuring_ = false;
}

}  // namespace ssq::multihop
