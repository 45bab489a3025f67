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
#pragma once

#include <cstdint>
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

  /// True iff the packet's class buffer has `length` free flits.
  /// (Inline: called for every admission attempt of every cycle.)
  [[nodiscard]] bool can_accept(const Packet& pkt) const {
    switch (pkt.cls) {
      case TrafficClass::BestEffort:
        return be_occ_ + pkt.length <= buffers_.be_flits;
      case TrafficClass::GuaranteedBandwidth:
        SSQ_EXPECT(pkt.dst < radix_);
        return gb_occ_[pkt.dst] + pkt.length <= buffers_.gb_flits_per_output;
      case TrafficClass::GuaranteedLatency:
        return gl_occ_ + pkt.length <= buffers_.gl_flits;
    }
    return false;
  }

  /// Moves a packet into its class buffer; stamps `buffered = now`.
  void accept(Packet&& pkt, Cycle now);

  // Head-of-line visibility (nullptr when empty). Inline: the request
  // selection scan consults heads for every non-busy input every cycle.
  [[nodiscard]] const Packet* be_head() const {
    return be_q_.empty() ? nullptr : &be_q_.front();
  }
  [[nodiscard]] const Packet* gb_head(OutputId dst) const {
    SSQ_EXPECT(dst < radix_);
    return gb_q_[dst].empty() ? nullptr : &gb_q_[dst].front();
  }
  [[nodiscard]] const Packet* gl_head() const {
    return gl_q_.empty() ? nullptr : &gl_q_.front();
  }

  /// Pops the head of the given queue. The packet's flits remain accounted
  /// in the buffer until drained via drain_flit.
  Packet pop_be();
  Packet pop_gb(OutputId dst);
  Packet pop_gl();

  /// Releases one flit of buffer space (called once per transfer cycle of a
  /// packet popped from the corresponding queue).
  void drain_flit(TrafficClass cls, OutputId dst) {
    switch (cls) {
      case TrafficClass::BestEffort:
        SSQ_EXPECT(be_occ_ >= 1);
        --be_occ_;
        break;
      case TrafficClass::GuaranteedBandwidth:
        SSQ_EXPECT(dst < radix_);
        SSQ_EXPECT(gb_occ_[dst] >= 1);
        --gb_occ_[dst];
        break;
      case TrafficClass::GuaranteedLatency:
        SSQ_EXPECT(gl_occ_ >= 1);
        --gl_occ_;
        break;
    }
  }

  /// True iff `flits` more flits fit in the class buffer (PVC preemption:
  /// can the victim's drained flits be re-accounted in place?).
  [[nodiscard]] bool can_restore(TrafficClass cls, OutputId dst,
                                 std::uint32_t flits) const;

  /// Returns a previously popped packet to the FRONT of its queue and
  /// re-accounts `drained_flits` of buffer space (PVC preemption: the
  /// victim is retransmitted from the source buffer). Requires can_restore.
  void push_front(Packet&& pkt, std::uint32_t drained_flits);

  // Single-transmitter constraint: the input bus carries one flit/cycle.
  // `free_at` is the first cycle the port may request again.
  [[nodiscard]] bool busy(Cycle now) const noexcept { return now < free_at_; }
  void set_free_at(Cycle c) noexcept { free_at_ = c; }

  // Occupancy introspection (flits currently held, queued or in flight).
  [[nodiscard]] std::uint32_t be_occupancy() const noexcept { return be_occ_; }
  [[nodiscard]] std::uint32_t gb_occupancy(OutputId dst) const;
  [[nodiscard]] std::uint32_t gl_occupancy() const noexcept { return gl_occ_; }
  /// Flits across all GB crosspoint queues (snapshot sampling).
  [[nodiscard]] std::uint32_t gb_total_occupancy() const noexcept;

  // High-water marks since construction (always maintained — three compares
  // per accepted packet — so run summaries can report buffer pressure even
  // without a probe attached).
  [[nodiscard]] std::uint32_t peak_be_occupancy() const noexcept {
    return peak_be_;
  }
  [[nodiscard]] std::uint32_t peak_gb_occupancy() const noexcept {
    return peak_gb_;
  }
  [[nodiscard]] std::uint32_t peak_gl_occupancy() const noexcept {
    return peak_gl_;
  }

  /// Rotating preference pointer over GB output queues (used by the request
  /// selection policy; the port owns it so fairness is per-port).
  [[nodiscard]] OutputId gb_pointer() const noexcept { return gb_ptr_; }
  void advance_gb_pointer(OutputId granted) noexcept {
    gb_ptr_ = (granted + 1) % radix_;
  }

  /// Bitmask of outputs whose GB crosspoint queue is non-empty (bit o set ==
  /// gb_head(o) != nullptr). Lets the request-selection scan visit only
  /// occupied queues instead of all `radix` of them.
  [[nodiscard]] std::uint64_t gb_nonempty() const noexcept {
    return gb_nonempty_;
  }

  /// Bitmask of outputs this port holds a head-of-line packet for: the GL
  /// head's destination, every non-empty GB queue and the BE head's
  /// destination.
  [[nodiscard]] std::uint64_t head_outputs() const noexcept {
    std::uint64_t m = gb_nonempty_;
    if (!gl_q_.empty()) m |= 1ULL << gl_q_.front().dst;
    if (!be_q_.empty()) m |= 1ULL << be_q_.front().dst;
    return m;
  }

 private:
  InputId id_;
  std::uint32_t radix_;
  BufferConfig buffers_;

  RingQueue<Packet> be_q_;
  std::vector<RingQueue<Packet>> gb_q_;  // per output
  RingQueue<Packet> gl_q_;
  std::uint64_t gb_nonempty_ = 0;  // bit o == gb_q_[o] non-empty

  std::uint32_t be_occ_ = 0;
  std::vector<std::uint32_t> gb_occ_;
  std::uint32_t gl_occ_ = 0;
  std::uint32_t peak_be_ = 0;
  std::uint32_t peak_gb_ = 0;  // per-crosspoint high-water mark
  std::uint32_t peak_gl_ = 0;

  Cycle free_at_ = 0;
  OutputId gb_ptr_ = 0;
};

}  // namespace ssq::sw
