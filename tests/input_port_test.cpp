// Unit tests for src/switch/input_port: per-class buffering, flit-granular
// occupancy, head-of-line visibility, and the single-transmitter bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "switch/input_port.hpp"

namespace ssq::sw {
namespace {

Packet make_packet(InputId src, OutputId dst, TrafficClass cls,
                   std::uint32_t len, PacketId id = 0) {
  Packet p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.cls = cls;
  p.length = len;
  return p;
}

BufferConfig small_buffers() {
  return BufferConfig{.be_flits = 8, .gb_flits_per_output = 8, .gl_flits = 4};
}

TEST(InputPortTest, AcceptStampsBufferedCycle) {
  InputPort port(2, 4, small_buffers());
  port.accept(make_packet(2, 1, TrafficClass::GuaranteedBandwidth, 4), 123);
  ASSERT_NE(port.head(TrafficClass::GuaranteedBandwidth, 1), nullptr);
  EXPECT_EQ(port.head(TrafficClass::GuaranteedBandwidth, 1)->buffered, 123u);
  EXPECT_EQ(port.gb_occupancy(1), 4u);
}

TEST(InputPortTest, PerClassBuffersAreIndependent) {
  InputPort port(0, 4, small_buffers());
  port.accept(make_packet(0, 1, TrafficClass::BestEffort, 8), 0);
  EXPECT_EQ(port.be_occupancy(), 8u);
  // BE is full but GB and GL still accept.
  EXPECT_FALSE(port.can_accept(TrafficClass::BestEffort, 2, 1));
  EXPECT_TRUE(port.can_accept(TrafficClass::GuaranteedBandwidth, 2, 8));
  EXPECT_TRUE(port.can_accept(TrafficClass::GuaranteedLatency, 2, 4));
}

TEST(InputPortTest, GbBuffersArePerOutput) {
  InputPort port(0, 4, small_buffers());
  port.accept(make_packet(0, 1, TrafficClass::GuaranteedBandwidth, 8), 0);
  EXPECT_EQ(port.gb_occupancy(1), 8u);
  EXPECT_EQ(port.gb_occupancy(2), 0u);
  // The (0,1) crosspoint queue is full; the (0,2) queue is not.
  EXPECT_FALSE(port.can_accept(TrafficClass::GuaranteedBandwidth, 1, 1));
  EXPECT_TRUE(port.can_accept(TrafficClass::GuaranteedBandwidth, 2, 8));
}

TEST(InputPortTest, AcceptanceIsWholePacketGranular) {
  InputPort port(0, 4, small_buffers());
  port.accept(make_packet(0, 0, TrafficClass::GuaranteedLatency, 3), 0);
  // 1 flit free but the 2-flit packet does not fit.
  EXPECT_FALSE(port.can_accept(TrafficClass::GuaranteedLatency, 0, 2));
  EXPECT_TRUE(port.can_accept(TrafficClass::GuaranteedLatency, 0, 1));
}

TEST(InputPortTest, FifoOrderWithinAQueue) {
  InputPort port(0, 4, small_buffers());
  port.accept(make_packet(0, 3, TrafficClass::GuaranteedBandwidth, 2, 11), 0);
  port.accept(make_packet(0, 3, TrafficClass::GuaranteedBandwidth, 2, 22), 1);
  EXPECT_EQ(port.head(TrafficClass::GuaranteedBandwidth, 3)->id, 11u);
  EXPECT_EQ(port.pop(TrafficClass::GuaranteedBandwidth, 3).id, 11u);
  EXPECT_EQ(port.head(TrafficClass::GuaranteedBandwidth, 3)->id, 22u);
}

TEST(InputPortTest, PopKeepsOccupancyUntilDrained) {
  InputPort port(0, 4, small_buffers());
  port.accept(make_packet(0, 2, TrafficClass::GuaranteedBandwidth, 4), 0);
  const Packet p = port.pop(TrafficClass::GuaranteedBandwidth, 2);
  EXPECT_EQ(p.length, 4u);
  // Flits still occupy the buffer while "on the wire".
  EXPECT_EQ(port.gb_occupancy(2), 4u);
  for (int k = 0; k < 4; ++k) {
    port.drain_flit(TrafficClass::GuaranteedBandwidth, 2);
  }
  EXPECT_EQ(port.gb_occupancy(2), 0u);
}

TEST(InputPortTest, HeadsAreNullWhenEmpty) {
  InputPort port(0, 4, small_buffers());
  EXPECT_EQ(port.be_head(), nullptr);
  EXPECT_EQ(port.gl_head(), nullptr);
  for (OutputId o = 0; o < 4; ++o) {
    EXPECT_EQ(port.head(TrafficClass::GuaranteedBandwidth, o), nullptr);
  }
}

TEST(InputPortTest, BusyWindow) {
  InputPort port(0, 4, small_buffers());
  EXPECT_FALSE(port.busy(0));
  port.set_free_at(10);
  EXPECT_TRUE(port.busy(9));
  EXPECT_FALSE(port.busy(10));
}

TEST(InputPortTest, GbPointerRotation) {
  InputPort port(0, 4, small_buffers());
  EXPECT_EQ(port.gb_pointer(), 0u);
  port.advance_gb_pointer(2);
  EXPECT_EQ(port.gb_pointer(), 3u);
  port.advance_gb_pointer(3);
  EXPECT_EQ(port.gb_pointer(), 0u);  // wraps
}

// -- Property: the port against plain per-class counters -------------------
//
// A seeded random sequence of accept, pop, drain, push_front and can_accept
// over all three classes, checked after every operation against a model that
// keeps one packet list and one flit counter per class buffer (BE, GB per
// output, GL): occupancy, high-water marks, every head, gb_nonempty() and
// head_outputs(). The model's high-water marks are the true ones, raised by
// accept and push_front alike, and every mark must equal the model's.

struct PortModel {
  static constexpr std::uint32_t kRadix = 4;
  struct Queue {
    std::deque<Packet> q;
    std::uint32_t occ = 0;
    std::uint32_t cap = 0;
    std::uint32_t peak = 0;
  };
  Queue be, gl;
  std::array<Queue, kRadix> gb;

  explicit PortModel(const BufferConfig& b) {
    be.cap = b.be_flits;
    gl.cap = b.gl_flits;
    for (Queue& q : gb) q.cap = b.gb_flits_per_output;
  }
  Queue& of(TrafficClass cls, OutputId dst) {
    if (cls == TrafficClass::GuaranteedBandwidth) return gb[dst];
    return cls == TrafficClass::GuaranteedLatency ? gl : be;
  }
  const Packet* head(TrafficClass cls, OutputId dst) {
    const Queue& q = of(cls, dst);
    return q.q.empty() || q.q.front().dst != dst ? nullptr : &q.q.front();
  }
};

/// First disagreement between the port and the model, or "".
std::string port_mismatch(const InputPort& port, PortModel& m) {
  std::ostringstream why;
  if (port.be_occupancy() != m.be.occ || port.gl_occupancy() != m.gl.occ) {
    why << "BE/GL occupancy " << port.be_occupancy() << '/'
        << port.gl_occupancy() << ", model " << m.be.occ << '/' << m.gl.occ;
    return why.str();
  }
  if (port.peak_be_occupancy() != m.be.peak ||
      port.peak_gl_occupancy() != m.gl.peak) {
    return "BE/GL high-water marks differ";
  }
  std::uint32_t total = 0;
  std::uint32_t peak = 0;
  std::uint64_t nonempty = 0;
  std::uint64_t heads = 0;
  for (OutputId o = 0; o < PortModel::kRadix; ++o) {
    if (port.gb_occupancy(o) != m.gb[o].occ) {
      why << "GB occupancy of output " << o << ": " << port.gb_occupancy(o)
          << ", model " << m.gb[o].occ;
      return why.str();
    }
    total += m.gb[o].occ;
    peak = std::max(peak, m.gb[o].peak);
    if (!m.gb[o].q.empty()) nonempty |= 1ULL << o;
    for (const TrafficClass cls :
         {TrafficClass::BestEffort, TrafficClass::GuaranteedBandwidth,
          TrafficClass::GuaranteedLatency}) {
      const Packet* want = m.head(cls, o);
      const Packet* got = port.head(cls, o);
      if ((want == nullptr) != (got == nullptr) ||
          (want != nullptr && want->id != got->id)) {
        why << to_string(cls) << " head for output " << o << " differs";
        return why.str();
      }
      if (want != nullptr) heads |= 1ULL << o;
    }
  }
  if (port.gb_total_occupancy() != total) return "GB total differs";
  if (port.peak_gb_occupancy() != peak) {
    return "GB high-water mark differs";
  }
  if (port.gb_nonempty() != nonempty) return "gb_nonempty() differs";
  if (port.head_outputs() != heads) return "head_outputs() differs";
  const auto same = [](const Packet* p, const std::deque<Packet>& q) {
    return q.empty() ? p == nullptr : p != nullptr && p->id == q.front().id;
  };
  if (!same(port.be_head(), m.be.q) || !same(port.gl_head(), m.gl.q)) {
    return "shared FIFO head differs";
  }
  return "";
}

TEST(InputPortTest, RandomOperationsMatchPerClassCounters) {
  const BufferConfig buffers = small_buffers();
  InputPort port(1, PortModel::kRadix, buffers);
  PortModel m(buffers);
  // Popped packets still holding flits: the packet and the flits drained.
  std::vector<std::pair<Packet, std::uint32_t>> flight;
  Rng rng(0x1a9e);
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng.below(n));
  };
  const TrafficClass classes[] = {TrafficClass::BestEffort,
                                  TrafficClass::GuaranteedBandwidth,
                                  TrafficClass::GuaranteedLatency};
  std::uint64_t counts[5] = {};
  PacketId next_id = 0;
  for (Cycle t = 0; t < 20000; ++t) {
    const std::uint32_t op = below(5);
    const TrafficClass cls = classes[below(3)];
    const auto dst = static_cast<OutputId>(below(PortModel::kRadix));
    PortModel::Queue& q = m.of(cls, dst);
    if (op == 0) {  // accept
      const std::uint32_t len = 1 + below(4);
      const bool fits = q.occ + len <= q.cap;
      ASSERT_EQ(port.can_accept(cls, dst, len), fits) << "cycle " << t;
      if (fits) {
        Packet p = make_packet(1, dst, cls, len, next_id++);
        p.buffered = t;
        q.q.push_back(p);
        q.occ += len;
        q.peak = std::max(q.peak, q.occ);
        port.accept(std::move(p), t);
        ++counts[op];
      }
    } else if (op == 1) {  // pop
      if (const Packet* h = m.head(cls, dst); h != nullptr) {
        const Packet p = port.pop(cls, dst);
        ASSERT_EQ(p.id, h->id) << "cycle " << t;
        flight.emplace_back(p, 0);
        q.q.pop_front();
        ++counts[op];
      }
    } else if (op == 2 || op == 3) {  // drain, or push_front (preemption)
      if (flight.empty()) continue;
      const std::size_t k = below(flight.size());
      auto& [p, drained] = flight[k];
      PortModel::Queue& home = m.of(p.cls, p.dst);
      if (op == 2) {
        port.drain_flit(p.cls, p.dst);
        --home.occ;
        ++drained;
      } else {
        const bool fits = home.occ + drained <= home.cap;
        ASSERT_EQ(port.can_accept(p.cls, p.dst, drained), fits)
            << "cycle " << t;
        if (!fits) continue;
        home.occ += drained;
        home.peak = std::max(home.peak, home.occ);
        home.q.push_front(p);
        port.push_front(Packet(p), drained);
        drained = p.length;  // back in its queue: drop it from the flight
      }
      ++counts[op];
      if (drained == p.length) {
        flight[k] = flight.back();
        flight.pop_back();
      }
    } else {  // can_accept alone, on a length that may not fit
      const std::uint32_t flits = below(q.cap + 2);
      ASSERT_EQ(port.can_accept(cls, dst, flits), q.occ + flits <= q.cap)
          << "cycle " << t;
      ++counts[op];
    }
    const std::string why = port_mismatch(port, m);
    ASSERT_TRUE(why.empty()) << "cycle " << t << ": " << why;
  }
  for (std::uint64_t c : counts) EXPECT_GT(c, 500u);
}

TEST(InputPortDeathTest, AcceptWithoutSpaceAborts) {
  InputPort port(0, 4, small_buffers());
  port.accept(make_packet(0, 0, TrafficClass::GuaranteedLatency, 4), 0);
  EXPECT_DEATH(
      port.accept(make_packet(0, 0, TrafficClass::GuaranteedLatency, 1), 1),
      "can_accept");
}

TEST(InputPortDeathTest, WrongSourceAborts) {
  InputPort port(3, 4, small_buffers());
  EXPECT_DEATH(
      port.accept(make_packet(1, 0, TrafficClass::BestEffort, 1), 0),
      "src");
}

TEST(InputPortDeathTest, OverdrainAborts) {
  InputPort port(0, 4, small_buffers());
  EXPECT_DEATH(port.drain_flit(TrafficClass::BestEffort, 0), "be_occ");
}

}  // namespace
}  // namespace ssq::sw
