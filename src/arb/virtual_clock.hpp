// Exact (infinite-precision) Virtual Clock arbiter [Zhang, SIGCOMM'90] — the
// "Original Virtual Clock" series of the paper's Fig. 5.
//
// Per input flow: a real-valued auxVC and a Vtick (mean inter-packet time at
// the reserved rate, in cycles). Arbitration compares the raw auxVC values
// at full precision; the smallest wins, ties to the lower index. On grant,
// auxVC_i <- max(auxVC_i, now) + Vtick_i — the anti-burst clamp of step 1 of
// the original algorithm, applied at service time (the SSVC paper's own
// reading: the counter "is incremented by Vtick each time a packet is
// transmitted"). Clamping at service rather than at pick matters: a flow
// returning from idleness wins exactly one cheap arbitration before its
// clock snaps to now+Vtick, instead of permanently tying with every other
// backlogged flow at `now` and starving them through the index tie-break.
//
// This is precisely what the paper's SSVC computes, minus the thermometer
// coarsening and the LRG tie-break — which is why Fig. 5 shows it giving
// low-rate flows (large Vtick) much higher latency: a low-rate flow's auxVC
// leaps far ahead after every packet, so at full precision it loses to every
// high-rate flow until real time catches up.
#pragma once

#include <vector>

#include "arb/arbiter.hpp"

namespace ssq::arb {

class VirtualClockArbiter final : public Arbiter {
 public:
  /// `vticks[i]` > 0: cycles of virtual time per packet of input i.
  VirtualClockArbiter(std::uint32_t radix, std::vector<double> vticks);

  [[nodiscard]] InputId pick(std::span<const Request> requests,
                             Cycle now) override;
  void on_grant(InputId input, std::uint32_t length, Cycle now) override;

  [[nodiscard]] double aux_vc(InputId i) const {
    SSQ_EXPECT(i < radix());
    return vc_[i];
  }
  void set_vtick(InputId i, double vtick) {
    SSQ_EXPECT(i < radix());
    SSQ_EXPECT(vtick > 0.0);
    vticks_[i] = vtick;
  }

 private:
  std::vector<double> vticks_;
  std::vector<double> vc_;
};

}  // namespace ssq::arb
