#include "switch/input_port.hpp"

#include <algorithm>
#include <utility>

namespace ssq::sw {

InputPort::InputPort(InputId id, std::uint32_t radix,
                     const BufferConfig& buffers)
    : id_(id),
      radix_(radix),
      cap_{buffers.be_flits, buffers.gb_flits_per_output, buffers.gl_flits},
      gb_(radix) {
  buffers.validate();
}

void InputPort::accept(Packet&& pkt, Cycle now) {
  SSQ_EXPECT(pkt.src == id_);
  SSQ_EXPECT(can_accept(pkt.cls, pkt.dst, pkt.length));
  pkt.buffered = now;
  Buffer& b = buffer(*this, pkt.cls, pkt.dst);
  b.occ += pkt.length;
  b.peak = std::max(b.peak, b.occ);
  if (pkt.cls == TrafficClass::GuaranteedBandwidth) {
    gb_nonempty_ |= 1ULL << pkt.dst;
  }
  b.q.push_back(std::move(pkt));
}

Packet InputPort::pop(TrafficClass cls, OutputId dst) {
  RingQueue<Packet>& q = buffer(*this, cls, dst).q;
  SSQ_EXPECT(!q.empty() && q.front().dst == dst);  // head(cls, dst) exists
  Packet p = std::move(q.front());
  q.pop_front();
  if (cls == TrafficClass::GuaranteedBandwidth && q.empty()) {
    gb_nonempty_ &= ~(1ULL << dst);
  }
  return p;
}

void InputPort::push_front(Packet&& pkt, std::uint32_t drained_flits) {
  SSQ_EXPECT(pkt.src == id_);
  SSQ_EXPECT(can_accept(pkt.cls, pkt.dst, drained_flits));
  Buffer& b = buffer(*this, pkt.cls, pkt.dst);
  b.occ += drained_flits;
  b.peak = std::max(b.peak, b.occ);
  if (pkt.cls == TrafficClass::GuaranteedBandwidth) {
    gb_nonempty_ |= 1ULL << pkt.dst;
  }
  b.q.push_front(std::move(pkt));
}

std::uint32_t InputPort::gb_total_occupancy() const noexcept {
  std::uint32_t total = 0;
  for (const Buffer& b : gb_) total += b.occ;
  return total;
}

std::uint32_t InputPort::peak_gb_occupancy() const noexcept {
  std::uint32_t peak = 0;
  for (const Buffer& b : gb_) peak = std::max(peak, b.peak);
  return peak;
}

}  // namespace ssq::sw
