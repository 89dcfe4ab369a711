#include "otn/restorer.hpp"

#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::otn {

void MeshRestorer::link_failed(LinkId link) {
  const SimTime failed_at = engine_->now();
  const auto affected = layer_->on_link_failed(link);
  for (const OduCircuitId id : affected) {
    const auto& c = layer_->circuit(id);
    if (!c.is_protected) continue;
    // Per-circuit failover signaling + switch fabric time.
    const SimTime delay =
        LatencyModel::normal(milliseconds(40), milliseconds(110),
                             milliseconds(25))
            .sample(engine_->rng());
    engine_->schedule(delay, [this, id, failed_at]() {
      // The circuit may have been released or repaired meanwhile.
      Status status{ErrorCode::kNotFound, "restorer: circuit gone"};
      bool still_failed = false;
      for (const OduCircuitId cid : layer_->circuit_ids()) {
        if (cid == id) {
          still_failed =
              layer_->circuit(id).state == OduCircuit::State::kFailed;
          break;
        }
      }
      if (still_failed) status = layer_->activate_backup(id);
      if (status.ok()) {
        ++restored_ok_;
        times_[id] = engine_->now() - failed_at;
      } else {
        ++restored_failed_;
      }
      if (telemetry_ != nullptr) {
        auto& m = telemetry_->metrics();
        m.counter(status.ok() ? "griphon_otn_mesh_restorations_ok_total"
                              : "griphon_otn_mesh_restorations_failed_total",
                  status.ok() ? "Successful mesh backup activations"
                              : "Failed mesh backup activations")
            ->inc();
        if (status.ok())
          m.histogram("griphon_otn_mesh_restore_seconds",
                      "Fiber cut to traffic-restored, per circuit")
              ->observe(to_seconds(engine_->now() - failed_at));
        telemetry_->span_record(
            "mesh_restore", "mesh-restorer", 0, 0, failed_at,
            engine_->now(), status.ok(),
            "circuit " + std::to_string(id.value()));
      }
      if (restore_cb_) restore_cb_(id, status);
    });
  }
}

void MeshRestorer::link_repaired(LinkId link) {
  const auto eligible = layer_->on_link_repaired(link);
  for (const OduCircuitId id : eligible)
    if (revert_cb_) revert_cb_(id);
}

}  // namespace griphon::otn
