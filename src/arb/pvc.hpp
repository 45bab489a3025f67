// Preemptive Virtual Clock (PVC) — Grot, Keckler & Mutlu, MICRO'09 (the
// paper's reference [7]), adapted to a single-stage crossbar.
//
// PVC tracks each flow's bandwidth consumption over fixed frames; a flow's
// priority LEVEL is how much of its reservation it has already used this
// frame (coarsely quantised, fewer-consumed = higher priority = lower
// level). Arbitration picks the lowest level, round-robin within a level.
// Frames reset the counters, so history is bounded without per-crosspoint
// clocks — PVC's answer to the same finite-state problem SSVC solves with
// the subtract/halve/reset policies.
//
// The "preemptive" part lives in the switch (SwitchConfig::pvc): a waiting
// packet whose level beats the in-flight packet's grant-time level by more
// than `preempt_margin` levels may abort the transfer; the victim is
// dropped and retransmitted from the source buffer (push-front), and the
// flits already moved count as waste, not goodput. Preemption bounds
// priority inversion without reserved VCs — at the price of wasted link
// time that bench/pvc_comparison quantifies against SSVC.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class PvcArbiter final : public Arbiter {
 public:
  /// `shares[i]` > 0: relative reserved shares (normalised internally).
  /// `frame_cycles`: bandwidth-accounting frame length. `levels`: priority
  /// quantisation (PVC uses a handful of levels).
  PvcArbiter(std::uint32_t radix, std::vector<double> shares,
             Cycle frame_cycles = 512, std::uint32_t levels = 8);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  /// Priority level of input i at `now` (0 = highest). Advances the frame
  /// if `now` crossed a boundary.
  [[nodiscard]] std::uint32_t level(InputId i, Cycle now);

  [[nodiscard]] Cycle frame_cycles() const noexcept { return frame_; }
  [[nodiscard]] std::uint32_t num_levels() const noexcept { return levels_; }

 private:
  void roll_frame(Cycle now);

  std::vector<double> share_;      // normalised to sum 1
  std::vector<std::uint64_t> consumed_;  // flits this frame
  Cycle frame_;
  std::uint32_t levels_;
  Cycle frame_start_ = 0;
  InputId rr_ = 0;  // round-robin pointer within a level
};

}  // namespace ssq::arb
