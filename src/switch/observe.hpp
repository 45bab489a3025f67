// Glue between the switch and the observability layer: occupancy snapshots,
// a sampled run, the conformance configuration a workload implies, and the
// incident rig every driver wires its monitor and flight recorder through.
// Lives in ssq_switch (obs cannot see CrossbarSwitch — it sits below core in
// the dependency order).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/conformance.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "switch/crossbar.hpp"

namespace ssq::sw {

/// Current per-input-port class-buffer occupancy, in flits.
[[nodiscard]] std::vector<obs::PortOccupancy> collect_occupancy(
    const CrossbarSwitch& sw);

/// Runs `cycles` cycles (CrossbarSwitch::run), taking one sampler snapshot
/// whenever the switch clock crosses a multiple of sampler.interval().
/// Requires an attached probe (the sampler diffs its per-output counters).
/// Fast-forward aware: a quiescent clock jump emits one snapshot per crossed
/// boundary — with state provably unchanged by the jump, those samples are
/// byte-identical to a --no-fast-forward run's — instead of capping the jump
/// at one interval.
void run_sampled(CrossbarSwitch& sw, Cycle cycles,
                 obs::SnapshotSampler& sampler);

/// Builds the monitor configuration implied by a switch configuration and
/// its workload: per-flow GB reservations and the per-output Eq. (1) GL
/// wait bounds (qosmath sits above obs in the library order, so the bound
/// values travel by config). l_max/l_min derive from the GL flows actually
/// aimed at each output (falling back to the reservation's nominal packet
/// length), N_GL,o counts distinct injecting inputs, and b is the GL
/// buffer depth.
[[nodiscard]] obs::ConformanceConfig make_conformance_config(
    const SwitchConfig& config, const traffic::Workload& workload,
    Cycle window = 2048);

/// The incident rig: an optional flight recorder and an optional conformance
/// monitor behind one tee sink, under the snapshot rules every driver
/// shares. The recorder joins the tee before the monitor, so the ring holds
/// the triggering event when a monitor callback snapshots it; the first
/// violation or fault snapshot is kept; a divergence replaces it. Without a
/// monitor nothing but a divergence snapshots. Not copyable: the monitor's
/// callbacks point at the rig.
class IncidentRig {
 public:
  /// `flight_capacity` ring events (0 = no recorder); `monitor` nullopt =
  /// no monitor.
  IncidentRig(std::size_t flight_capacity,
              std::optional<obs::ConformanceConfig> monitor);
  IncidentRig(const IncidentRig&) = delete;
  IncidentRig& operator=(const IncidentRig&) = delete;

  /// The sink for a probe's extra sink; nullptr when the rig holds nothing.
  [[nodiscard]] obs::TraceSink* sink() noexcept {
    return tee_.size() > 0 ? &tee_ : nullptr;
  }
  /// The monitor, or nullptr without one.
  [[nodiscard]] obs::ConformanceMonitor* monitor() noexcept {
    return monitor_.has_value() ? &*monitor_ : nullptr;
  }

  /// Snapshots the ring as the divergence `kind` at `cycle`, replacing any
  /// earlier snapshot. No-op without a recorder.
  void divergence(std::string_view kind, Cycle cycle);

  /// The `ssq.flight.v1` JSONL snapshot; empty until an incident.
  [[nodiscard]] const std::string& snapshot() const noexcept {
    return snapshot_;
  }
  /// Event lines in snapshot() — the ring's size when it was taken.
  [[nodiscard]] std::size_t snapshot_events() const noexcept {
    return snapshot_events_;
  }

 private:
  void take(std::string_view reason, Cycle cycle);

  std::optional<obs::FlightRecorder> recorder_;
  std::optional<obs::ConformanceMonitor> monitor_;
  obs::TeeSink tee_;
  std::string snapshot_;
  std::size_t snapshot_events_ = 0;
};

}  // namespace ssq::sw
