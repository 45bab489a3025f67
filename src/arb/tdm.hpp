// Time-Division Multiplexing slot-table arbiter — the circuit-switched
// guarantee mechanism of Æthereal [6] and Nostrum [11] (§5), and the
// strawman Virtual Clock improves on (§2.2): "In a true TDM system, packets
// are serviced only in the time slots allocated to the source. If the
// source has no packets to send, that time slot is wasted and results in
// link underutilization."
//
// Slots are wall-clock aligned: slot k covers cycles
// [k*slot_cycles, (k+1)*slot_cycles) and belongs to table[k % period] (or to
// nobody, kNoPort). A grant is only issued at a slot boundary to the slot's
// owner; an owner with nothing to send wastes the WHOLE slot — the channel
// sits idle until the next boundary. Size slot_cycles to packet_len + 1 so
// one packet (plus its arbitration cycle) fills a slot exactly.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class TdmArbiter final : public Arbiter {
 public:
  /// `table[k]` = input owning slot k, or kNoPort for an unallocated slot.
  /// `slot_cycles` = wall-clock length of one slot.
  TdmArbiter(std::uint32_t radix, std::vector<InputId> table,
             std::uint32_t slot_cycles);

  /// Builds a slot table proportional to `shares` over `period` slots
  /// (largest-remainder apportionment, round-robin interleaved).
  static std::vector<InputId> shares_to_table(
      std::uint32_t radix, const std::vector<double>& shares,
      std::uint32_t period);

  /// Returns the current slot's owner iff `now` is the slot boundary and
  /// the owner is requesting; kNoPort otherwise (the slot is wasted).
  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] std::size_t slot_at(Cycle now) const noexcept {
    return static_cast<std::size_t>((now / slot_cycles_) % table_.size());
  }
  [[nodiscard]] std::uint32_t slot_cycles() const noexcept {
    return slot_cycles_;
  }
  [[nodiscard]] const std::vector<InputId>& table() const noexcept {
    return table_;
  }

 private:
  std::vector<InputId> table_;
  std::uint32_t slot_cycles_;
};

}  // namespace ssq::arb
