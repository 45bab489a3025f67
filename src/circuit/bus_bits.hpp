// Dynamic fixed-width bit vector modelling the output bus bitlines.
//
// The Swizzle Switch repurposes the output data bus wires for arbitration:
// bitlines are precharged, then requesting inputs selectively discharge them.
// BusBits models the wire states for buses up to 1024 bits (512-bit channels
// are the largest the paper evaluates).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/contracts.hpp"

namespace ssq::circuit {

class BusBits {
 public:
  explicit BusBits(std::uint32_t width) : width_(width) {
    SSQ_EXPECT(width >= 1 && width <= 1024);
    words_.assign((width + 63) / 64, 0);
  }

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }

  [[nodiscard]] bool get(std::uint32_t i) const {
    SSQ_EXPECT(i < width_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::uint32_t i) {
    SSQ_EXPECT(i < width_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  void clear(std::uint32_t i) {
    SSQ_EXPECT(i < width_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Writes `bits` (low `count` bits) starting at wire `offset`.
  void set_range(std::uint32_t offset, std::uint64_t bits,
                 std::uint32_t count) {
    SSQ_EXPECT(count >= 1 && count <= 64);
    SSQ_EXPECT(offset + count <= width_);
    // At most two words: the low part lands at the offset's bit, the rest
    // spills into the next word.
    const std::uint64_t low = count == 64 ? bits : bits & ((1ULL << count) - 1);
    const std::uint32_t shift = offset & 63;
    words_[offset >> 6] |= low << shift;
    if (shift + count > 64) words_[(offset >> 6) + 1] |= low >> (64 - shift);
  }

  /// Bitwise OR-in of another vector of the same width (wired-OR discharge).
  BusBits& operator|=(const BusBits& other) {
    SSQ_EXPECT(other.width_ == width_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
    return *this;
  }

  [[nodiscard]] std::uint32_t popcount() const noexcept {
    std::uint32_t n = 0;
    for (auto w : words_) n += static_cast<std::uint32_t>(__builtin_popcountll(w));
    return n;
  }

  friend bool operator==(const BusBits& a, const BusBits& b) noexcept {
    return a.width_ == b.width_ && a.words_ == b.words_;
  }

 private:
  std::uint32_t width_;
  std::vector<std::uint64_t> words_;
};

}  // namespace ssq::circuit
