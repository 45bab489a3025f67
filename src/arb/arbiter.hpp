// Pluggable output-port arbiter interface.
//
// Each cycle the switch arbitrates every free output channel that some input
// requests: it collects the set of inputs with a ready head packet for that
// output and asks an Arbiter to pick the winner. State updates
// (priority rotation, deficit counters, virtual clocks) are committed through
// on_grant so a pick can be inspected before being taken.
//
// Concrete arbiters: LRG (the Swizzle Switch default), round-robin, fixed
// priority, age-based, WRR, DWRR, packet-level WFQ, and the exact Virtual
// Clock baseline. The paper's SSVC arbiter lives in src/core (it composes an
// LRG arbiter) and the bit-level circuit equivalent in src/circuit.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "sim/contracts.hpp"
#include "sim/types.hpp"

namespace ssq::arb {

/// One input's request to an output in the current arbitration.
struct Request {
  InputId input = 0;
  /// Packet length in flits of the head packet (WFQ and DWRR consume it).
  std::uint32_t length = 1;
  /// Arbiter-specific key; the age arbiter reads the head packet's injection
  /// cycle here. Ignored by the others.
  std::uint64_t key = 0;
  /// Message priority level (MultiLevelArbiter); 0 = lowest.
  std::uint32_t priority = 0;
};

class Arbiter {
 public:
  explicit Arbiter(std::uint32_t radix) : radix_(radix) {
    SSQ_EXPECT(radix >= 1 && radix <= 64);
  }
  virtual ~Arbiter() = default;

  Arbiter(const Arbiter&) = delete;
  Arbiter& operator=(const Arbiter&) = delete;

  /// Picks a winner among `requests` at cycle `now` WITHOUT mutating state.
  /// Returns kNoPort iff `requests` is empty. Inputs must be unique and
  /// < radix().
  [[nodiscard]] virtual InputId pick(std::span<const Request> requests,
                                     Cycle now) = 0;

  /// Commits a grant to `input` of a packet `length` flits long at `now`.
  /// pick() and on_grant() are the only calls an arbiter sees, and `now` is
  /// its only clock: a cycle with no request leaves it untouched, which is
  /// what lets the switch jump idle cycles in every mode.
  virtual void on_grant(InputId input, std::uint32_t length, Cycle now) = 0;

  /// Restores the freshly-constructed state.
  virtual void reset() = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }

 protected:
  /// Shared precondition check for pick() implementations.
  void check_requests(std::span<const Request> requests) const {
    std::uint64_t seen = 0;
    for (const auto& r : requests) {
      SSQ_EXPECT(r.input < radix_);
      SSQ_EXPECT((seen & (1ULL << r.input)) == 0);
      seen |= 1ULL << r.input;
      SSQ_EXPECT(r.length >= 1);
    }
  }

 private:
  std::uint32_t radix_;
};

}  // namespace ssq::arb
