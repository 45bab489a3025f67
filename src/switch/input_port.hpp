// Input port: per-class buffering and the single-transmitter constraint.
//
// Buffer layout follows Table 1: one FIFO for BE, one FIFO per output for GB
// (the crosspoint queue — this is what keeps GB flows separated, §4.4 notes
// that losing this separation is what makes multi-switch QoS hard), and one
// FIFO for GL ("At the input ports, GL class packets should be buffered
// separately from GB class packets", §3.2).
//
// Occupancy is accounted in flits: a packet needs `length` free flits to be
// accepted and its flits drain one per transfer cycle while it transmits,
// so buffer space frees exactly as the wires would.
//
// The layout is stated once: the private buffer() accessor maps a (class,
// destination) pair to its buffer, and every per-class operation (fit,
// head, pop, drain, accept, push_front) goes through it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/ring_queue.hpp"
#include "sim/types.hpp"
#include "switch/config.hpp"
#include "switch/packet.hpp"

namespace ssq::sw {

class InputPort {
 public:
  InputPort(InputId id, std::uint32_t radix, const BufferConfig& buffers);

  [[nodiscard]] InputId id() const noexcept { return id_; }

  /// True iff `flits` more flits fit in the buffer holding class `cls`
  /// packets for output `dst`: admission of a `flits`-long packet, or PVC
  /// preemption re-accounting a victim's drained flits in place.
  /// (Inline: called for every admission attempt of every cycle.)
  [[nodiscard]] bool can_accept(TrafficClass cls, OutputId dst,
                                std::uint32_t flits) const {
    return buffer(*this, cls, dst).occ + flits <=
           cap_[static_cast<std::size_t>(cls)];
  }

  /// Moves a packet into its class buffer; stamps `buffered = now`.
  void accept(Packet&& pkt, Cycle now);

  /// The head of the queue holding class `cls` packets for output `dst`,
  /// when that head goes to `dst`; nullptr otherwise (the GL and BE FIFOs
  /// are shared by every output). Inline: request selection and matching
  /// consult heads for every non-busy input every cycle.
  [[nodiscard]] const Packet* head(TrafficClass cls, OutputId dst) const {
    const RingQueue<Packet>& q = buffer(*this, cls, dst).q;
    return q.empty() || q.front().dst != dst ? nullptr : &q.front();
  }
  /// Heads of the shared GL and BE FIFOs, whatever their destination.
  [[nodiscard]] const Packet* gl_head() const {
    return gl_.q.empty() ? nullptr : &gl_.q.front();
  }
  [[nodiscard]] const Packet* be_head() const {
    return be_.q.empty() ? nullptr : &be_.q.front();
  }

  /// Pops head(cls, dst), which must exist. The packet's flits remain
  /// accounted in the buffer until drained via drain_flit.
  Packet pop(TrafficClass cls, OutputId dst);

  /// Releases one flit of buffer space (called once per transfer cycle of a
  /// packet popped from the corresponding queue).
  void drain_flit(TrafficClass cls, OutputId dst) {
    std::uint32_t& occ = buffer(*this, cls, dst).occ;
    SSQ_EXPECT(occ >= 1 &&
               "overdrain: the class occupancy (be_occ/gb_occ/gl_occ) is 0");
    --occ;
  }

  /// Returns a previously popped packet to the FRONT of its queue and
  /// re-accounts `drained_flits` of buffer space (PVC preemption: the
  /// victim is retransmitted from the source buffer). Requires
  /// can_accept(pkt.cls, pkt.dst, drained_flits).
  void push_front(Packet&& pkt, std::uint32_t drained_flits);

  // Single-transmitter constraint: the input bus carries one flit/cycle.
  // `free_at` is the first cycle the port may request again.
  [[nodiscard]] bool busy(Cycle now) const noexcept { return now < free_at_; }
  void set_free_at(Cycle c) noexcept { free_at_ = c; }

  // Occupancy introspection (flits currently held, queued or in flight).
  [[nodiscard]] std::uint32_t be_occupancy() const noexcept { return be_.occ; }
  [[nodiscard]] std::uint32_t gb_occupancy(OutputId dst) const {
    return buffer(*this, TrafficClass::GuaranteedBandwidth, dst).occ;
  }
  [[nodiscard]] std::uint32_t gl_occupancy() const noexcept { return gl_.occ; }
  /// Flits across all GB crosspoint queues (snapshot sampling).
  [[nodiscard]] std::uint32_t gb_total_occupancy() const noexcept;

  // High-water marks since construction (always maintained — one compare
  // per accepted packet — so run summaries can report buffer pressure even
  // without a probe attached). The GB mark is the highest any crosspoint
  // queue reached.
  [[nodiscard]] std::uint32_t peak_be_occupancy() const noexcept {
    return be_.peak;
  }
  [[nodiscard]] std::uint32_t peak_gb_occupancy() const noexcept;
  [[nodiscard]] std::uint32_t peak_gl_occupancy() const noexcept {
    return gl_.peak;
  }

  /// Rotating preference pointer over GB output queues (used by the request
  /// selection policy; the port owns it so fairness is per-port).
  [[nodiscard]] OutputId gb_pointer() const noexcept { return gb_ptr_; }
  void advance_gb_pointer(OutputId granted) noexcept {
    gb_ptr_ = (granted + 1) % radix_;
  }

  /// Bitmask of outputs whose GB crosspoint queue is non-empty (bit o set ==
  /// head(GB, o) != nullptr). Lets the request-selection scan visit only
  /// occupied queues instead of all `radix` of them.
  [[nodiscard]] std::uint64_t gb_nonempty() const noexcept {
    return gb_nonempty_;
  }

  /// Bitmask of outputs this port holds a head-of-line packet for: the GL
  /// head's destination, every non-empty GB queue and the BE head's
  /// destination.
  [[nodiscard]] std::uint64_t head_outputs() const noexcept {
    std::uint64_t m = gb_nonempty_;
    if (!gl_.q.empty()) m |= 1ULL << gl_.q.front().dst;
    if (!be_.q.empty()) m |= 1ULL << be_.q.front().dst;
    return m;
  }

 private:
  /// One class buffer: its FIFO, the flits it holds (queued or in flight)
  /// and its high-water mark. Its capacity is its class's entry in cap_.
  struct Buffer {
    RingQueue<Packet> q;
    std::uint32_t occ = 0;
    std::uint32_t peak = 0;
  };

  /// The class-to-queue map (Table 1): the buffer holding class `cls`
  /// packets for output `dst`. Every per-class operation goes through it.
  template <typename Port>
  static std::conditional_t<std::is_const_v<Port>, const Buffer, Buffer>&
  buffer(Port& port, TrafficClass cls, OutputId dst) {
    switch (cls) {
      case TrafficClass::GuaranteedBandwidth:
        SSQ_EXPECT(dst < port.radix_);
        return port.gb_[dst];
      case TrafficClass::GuaranteedLatency:
        return port.gl_;
      case TrafficClass::BestEffort:
        break;
    }
    return port.be_;
  }

  InputId id_;
  std::uint32_t radix_;
  // Flit capacity of one buffer of each class, indexed by TrafficClass
  // (BE, GB per crosspoint queue, GL).
  std::array<std::uint32_t, kNumClasses> cap_;

  Buffer be_;
  std::vector<Buffer> gb_;  // per output: the crosspoint queues
  Buffer gl_;
  std::uint64_t gb_nonempty_ = 0;  // bit o == gb_[o].q non-empty

  Cycle free_at_ = 0;
  OutputId gb_ptr_ = 0;
};

}  // namespace ssq::sw
