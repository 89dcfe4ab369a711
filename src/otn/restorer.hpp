// Autonomous shared-mesh restoration driver.
//
// In OTN deployments, mesh restoration is executed by the switches
// themselves from preplanned backup routes — it does not wait for the
// central controller (that is how it achieves "automatic sub-second
// shared-mesh restoration", paper §2.1). MeshRestorer models that
// distributed behaviour: the plant notifies it of fiber events and it
// activates backups after a per-circuit signaling latency.
#pragma once

#include <functional>
#include <map>

#include "otn/layer.hpp"
#include "sim/engine.hpp"

namespace griphon::telemetry {
class Telemetry;
}  // namespace griphon::telemetry

namespace griphon::otn {

class MeshRestorer {
 public:
  /// Fired when a circuit's restoration attempt finishes.
  using RestoreCallback = std::function<void(OduCircuitId, Status)>;
  /// Fired when a circuit becomes eligible for reversion after repair.
  using RevertEligibleCallback = std::function<void(OduCircuitId)>;

  MeshRestorer(sim::Engine* engine, OtnLayer* layer)
      : engine_(engine), layer_(layer) {}

  void on_restore(RestoreCallback cb) { restore_cb_ = std::move(cb); }
  void on_revert_eligible(RevertEligibleCallback cb) {
    revert_cb_ = std::move(cb);
  }

  /// Attach/detach a telemetry sink (griphon_otn_mesh_* metrics plus a
  /// retroactive mesh_restore span per attempt). Null = fast path.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Plant event: fiber down. Fails carriers and schedules backup
  /// activation for every affected protected circuit.
  void link_failed(LinkId link);
  /// Plant event: fiber repaired. Reports circuits eligible to revert.
  void link_repaired(LinkId link);

  [[nodiscard]] std::size_t restorations_ok() const noexcept {
    return restored_ok_;
  }
  [[nodiscard]] std::size_t restorations_failed() const noexcept {
    return restored_failed_;
  }
  /// Failure-to-traffic-restored time of the last event, per circuit.
  [[nodiscard]] const std::map<OduCircuitId, SimTime>& restoration_times()
      const noexcept {
    return times_;
  }

 private:
  sim::Engine* engine_;
  OtnLayer* layer_;
  RestoreCallback restore_cb_;
  RevertEligibleCallback revert_cb_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::size_t restored_ok_ = 0;
  std::size_t restored_failed_ = 0;
  std::map<OduCircuitId, SimTime> times_;
};

}  // namespace griphon::otn
