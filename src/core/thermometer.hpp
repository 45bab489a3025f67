// Thermometer code vector (paper §3.1 "Thermometer Code Creation").
//
// The top `level_bits` bits of an auxVC counter encode a level m; the
// hardware stores it one-hot-prefix style as a thermometer vector with bits
// T_0..T_m set (T_0 is hardwired 1 in Fig. 1's examples: a present flow
// always occupies at least lane 0). Lower level = smaller auxVC = higher
// priority.
//
// The hardware never recomputes the vector from the counter — it shifts it
// up when the auxVC MSBs increment, shifts every vector down on a real-time
// epoch wrap, and compresses or clears it for the halve/reset policies. This
// class mirrors those incremental updates so the circuit model can be tested
// for equivalence against recomputation from the level.
#pragma once

#include <cstdint>

#include "sim/contracts.hpp"

namespace ssq::core {

class ThermometerCode {
 public:
  /// `width` = number of lanes (GB levels), 1..64.
  explicit ThermometerCode(std::uint32_t width, std::uint32_t level = 0)
      : width_(width) {
    SSQ_EXPECT(width >= 1 && width <= 64);
    set_level(level);
  }

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }

  /// Encoded level: index of the highest set bit. bits() always has at least
  /// T_0 set, so level() is in [0, width).
  [[nodiscard]] std::uint32_t level() const noexcept { return level_; }

  /// Raw vector; bit i == T_i.
  [[nodiscard]] std::uint64_t bits() const noexcept {
    return (width_ == 64 ? ~0ULL : ((1ULL << (level_ + 1)) - 1));
  }

  [[nodiscard]] bool bit(std::uint32_t i) const noexcept {
    SSQ_EXPECT(i < width_);
    return i <= level_;
  }

  /// Direct (re)encode from a level; clamps to the top lane, matching the
  /// hardware where levels past the last lane all share it.
  void set_level(std::uint32_t level) noexcept {
    level_ = level < width_ ? level : width_ - 1;
  }

  /// Hardware update: auxVC MSBs incremented -> one more lane occupied.
  /// Saturates at the top lane.
  void shift_up() noexcept {
    if (level_ + 1 < width_) ++level_;
  }

  /// Hardware update on `k` real-time epoch wraps: one lane released per
  /// wrap, flooring at lane 0. k shifts in one step; the fault overlay stays.
  void shift_down(std::uint64_t k = 1) noexcept {
    level_ = k < level_ ? level_ - static_cast<std::uint32_t>(k) : 0;
  }

  /// Halve policy: "the auxVC register is shifted down by 1 position and the
  /// top half of the thermometer code is copied to the bottom half and then
  /// reset" — i.e. the encoded level halves.
  void halve() noexcept { level_ /= 2; }

  /// Reset policy: all thermometer codes cleared to level 0.
  void reset() noexcept { level_ = 0; }

  // ---- fault injection / scrubbing (hardware DFT surface) ----
  //
  // A soft error flips one storage cell of the thermometer vector; the
  // incremental shift logic keeps operating on the intended level while the
  // stored vector silently disagrees. The corruption is modelled as an XOR
  // overlay so the logical state (`level_`) and the physical vector
  // (`raw_bits()`) can diverge exactly the way a flipped SRAM cell makes
  // them diverge: a flip above the level grows the sensed level, a flip at
  // the top shrinks it, a flip below punches a hole the shape check catches.

  /// Flips stored bit `i` of the vector. Does NOT update the logical level —
  /// that is the fault.
  void fault_flip(std::uint32_t i) noexcept {
    if (i < width_) corrupt_ ^= 1ULL << i;
  }

  /// True iff the stored vector is no longer the thermometer encoding of the
  /// logical level (any outstanding flip).
  [[nodiscard]] bool corrupted() const noexcept { return corrupt_ != 0; }

  /// Stored vector including corruption; equals bits() when clean.
  [[nodiscard]] std::uint64_t raw_bits() const noexcept {
    return bits() ^ corrupt_;
  }

  /// Level the arbitration hardware senses: index of the highest set bit of
  /// the stored vector (0 when the vector reads all-zero — the sense amp
  /// falls back to lane 0). Equals level() when clean.
  [[nodiscard]] std::uint32_t effective_level() const noexcept {
    if (corrupt_ == 0) return level_;
    const std::uint64_t raw = raw_bits();
    if (raw == 0) return 0;
    return static_cast<std::uint32_t>(63 - __builtin_clzll(raw));
  }

  /// Scrub repair: rewrites the stored vector from the logical level.
  void clear_corruption() noexcept { corrupt_ = 0; }

  friend bool operator==(const ThermometerCode& a,
                         const ThermometerCode& b) noexcept {
    return a.width_ == b.width_ && a.level_ == b.level_;
  }

 private:
  std::uint32_t width_;
  std::uint32_t level_ = 0;
  std::uint64_t corrupt_ = 0;  // XOR overlay of fault-flipped cells
};

}  // namespace ssq::core
