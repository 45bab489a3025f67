#include "circuit/discharge.hpp"

namespace ssq::circuit {

namespace {

constexpr std::uint64_t all_inputs(std::uint32_t radix) noexcept {
  return radix == 64 ? ~0ULL : ((1ULL << radix) - 1);
}

}  // namespace

LaneDecision gb_lane_decision(const core::ThermometerCode& code,
                              std::uint32_t lane, std::uint64_t lrg_row,
                              std::uint32_t radix) {
  SSQ_EXPECT(lane < code.width());
  const bool t_i = code.bit(lane);
  const bool t_next = (lane + 1 < code.width()) && code.bit(lane + 1);
  LaneDecision d;
  if (!t_i) {
    d.bits = all_inputs(radix);  // lane above my level: inhibit everyone
  } else if (!t_next) {
    d.bits = lrg_row & all_inputs(radix);  // my lane: LRG tie-break
  } else {
    d.bits = 0;  // lane below my level: better inputs live here
  }
  return d;
}

BusBits discharge_vector(const LaneLayout& layout, RequestKind kind,
                         const core::ThermometerCode& code,
                         std::uint64_t lrg_row) {
  layout.validate();
  BusBits bus(layout.bus_width);
  discharge_into(bus, layout, kind, code, lrg_row);
  return bus;
}

void discharge_into(BusBits& bus, const LaneLayout& layout, RequestKind kind,
                    const core::ThermometerCode& code,
                    std::uint64_t lrg_row) {
  SSQ_EXPECT(bus.width() == layout.bus_width);
  SSQ_EXPECT(code.width() == layout.gb_lanes);
  const std::uint64_t all = all_inputs(layout.radix);

  switch (kind) {
    case RequestKind::None:
      break;

    case RequestKind::Gb:
      for (std::uint32_t lane = 0; lane < layout.gb_lanes; ++lane) {
        const LaneDecision d =
            gb_lane_decision(code, lane, lrg_row, layout.radix);
        bus.set_range(layout.wire(lane, 0), d.bits, layout.radix);
      }
      // BE completion: a reserved-class request defeats all best-effort.
      if (layout.has_be_lane) {
        bus.set_range(layout.wire(layout.be_lane(), 0), all, layout.radix);
      }
      break;

    case RequestKind::Gl:
      SSQ_EXPECT(layout.has_gl_lane);
      // Fig. 3: all bitlines in GB class lanes are discharged.
      for (std::uint32_t lane = 0; lane < layout.gb_lanes; ++lane) {
        bus.set_range(layout.wire(lane, 0), all, layout.radix);
      }
      // LRG arbitration among GL requesters in the GL lane.
      bus.set_range(layout.wire(layout.gl_lane(), 0), lrg_row & all,
                    layout.radix);
      if (layout.has_be_lane) {
        bus.set_range(layout.wire(layout.be_lane(), 0), all, layout.radix);
      }
      break;

    case RequestKind::BestEffort:
      SSQ_EXPECT(layout.has_be_lane);
      bus.set_range(layout.wire(layout.be_lane(), 0), lrg_row & all,
                    layout.radix);
      break;
  }
}

std::uint32_t sense_wire(const LaneLayout& layout, RequestKind kind,
                         const core::ThermometerCode& code, InputId input) {
  SSQ_EXPECT(input < layout.radix);
  switch (kind) {
    case RequestKind::Gb:
      return layout.wire(code.level(), input);
    case RequestKind::Gl:
      SSQ_EXPECT(layout.has_gl_lane);
      return layout.wire(layout.gl_lane(), input);
    case RequestKind::BestEffort:
      SSQ_EXPECT(layout.has_be_lane);
      return layout.wire(layout.be_lane(), input);
    case RequestKind::None:
      break;
  }
  SSQ_EXPECT(false && "no sense wire for a non-requesting crosspoint");
  return 0;
}

}  // namespace ssq::circuit
