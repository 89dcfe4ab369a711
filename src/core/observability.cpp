#include "core/observability.hpp"

#include <string>

#include "core/controller.hpp"
#include "core/network_model.hpp"
#include "ems/ems_server.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::core {

namespace {

double breaker_level(EmsHealthTracker::BreakerState s) {
  switch (s) {
    case EmsHealthTracker::BreakerState::kClosed:
      return 0.0;
    case EmsHealthTracker::BreakerState::kHalfOpen:
      return 0.5;
    case EmsHealthTracker::BreakerState::kOpen:
      return 1.0;
  }
  return 0.0;
}

}  // namespace

void install_standard_probes(telemetry::GaugeSampler& sampler,
                             GriphonController& controller,
                             NetworkModel& model) {
  sampler.add_probe("ot_pool_free", "count", [&controller] {
    return static_cast<double>(
        controller.inventory().snapshot()->free_ot_total());
  });
  sampler.add_probe("regen_pool_free", "count", [&controller] {
    return static_cast<double>(
        controller.inventory().snapshot()->free_regen_total());
  });
  sampler.add_probe("inventory_reservations", "count", [&controller] {
    return static_cast<double>(controller.inventory().reservations());
  });

  for (ems::EmsServer* server : model.ems_servers()) {
    const std::string probe = "ems_" + server->metric_domain();
    sampler.add_probe(probe + "_queue_depth", "count", [server] {
      return static_cast<double>(server->queue_depth());
    });
    // The controller keys its breakers by the full server name.
    sampler.add_probe(probe + "_breaker_open", "level",
                      [&controller, server] {
                        return breaker_level(
                            controller.ems_health().state(server->name()));
                      });
  }

  using CounterLookup = telemetry::CachedLookup<const telemetry::Counter*>;
  sampler.add_probe(
      "route_cache_hit_rate", "ratio",
      [&model, hits = CounterLookup("griphon_rwa_route_cache_hits_total"),
       misses = CounterLookup("griphon_rwa_route_cache_misses_total")]()
          mutable {
        telemetry::Telemetry* t = model.telemetry();
        if (t == nullptr) return 0.0;
        const auto value = [](const telemetry::Counter* c) {
          return c == nullptr ? 0.0 : static_cast<double>(c->value());
        };
        const double h = value(hits(t->metrics()));
        const double m = value(misses(t->metrics()));
        return h + m == 0 ? 0.0 : h / (h + m);
      });

  sampler.add_probe("connections_active", "count", [&controller] {
    return static_cast<double>(controller.active_connections());
  });
  sampler.add_probe("connections_blocked", "count", [&controller] {
    return static_cast<double>(controller.stats().setups_failed);
  });

  sampler.add_probe("restoration_backlog", "count", [&controller] {
    return static_cast<double>(controller.restoration_backlog_depth());
  });
  sampler.add_probe("restoration_in_flight", "count", [&controller] {
    return static_cast<double>(controller.restorations_in_flight());
  });
  sampler.add_probe("restoration_storm_active", "level", [&controller] {
    return controller.restoration_storm_active() ? 1.0 : 0.0;
  });
}

}  // namespace griphon::core
