#include "core/ems_health.hpp"

#include "telemetry/telemetry.hpp"

namespace griphon::core {

bool EmsHealthTracker::allow(const std::string& domain) {
  Domain& d = domain_of(domain);
  switch (d.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (engine_->now() - d.opened_at < params_.open_cooldown) {
        ++stats_.fast_failures;
        return false;
      }
      // Cooldown over: admit this caller as the half-open probe.
      d.state = BreakerState::kHalfOpen;
      d.probe_in_flight = true;
      gauge_set(domain, 0.5);
      return true;
    case BreakerState::kHalfOpen:
      if (d.probe_in_flight) {
        ++stats_.fast_failures;
        return false;  // one probe at a time
      }
      d.probe_in_flight = true;
      return true;
  }
  return true;
}

void EmsHealthTracker::record_success(const std::string& domain) {
  Domain& d = domain_of(domain);
  d.consecutive_timeouts = 0;
  d.probe_in_flight = false;
  if (d.state != BreakerState::kClosed) close_breaker(domain, d);
}

void EmsHealthTracker::record_timeout(const std::string& domain) {
  Domain& d = domain_of(domain);
  ++d.consecutive_timeouts;
  d.probe_in_flight = false;
  if (d.state == BreakerState::kHalfOpen ||
      (d.state == BreakerState::kClosed &&
       d.consecutive_timeouts >= params_.failure_threshold))
    open_breaker(domain, d);
}

EmsHealthTracker::BreakerState EmsHealthTracker::state(
    const std::string& domain) const {
  const auto it = domains_.find(domain);
  return it == domains_.end() ? BreakerState::kClosed : it->second.state;
}

int EmsHealthTracker::consecutive_timeouts(const std::string& domain) const {
  const auto it = domains_.find(domain);
  return it == domains_.end() ? 0 : it->second.consecutive_timeouts;
}

void EmsHealthTracker::open_breaker(const std::string& name, Domain& d) {
  d.state = BreakerState::kOpen;
  d.opened_at = engine_->now();
  ++stats_.opens;
  if (telemetry_ != nullptr) {
    telemetry_
        ->metrics()
        .counter("griphon_controller_ems_breaker_opened_total",
                 "Circuit-breaker open transitions", {{"domain", name}})
        ->inc();
    gauge_set(name, 1.0);
    telemetry_->event(telemetry::Severity::kWarn, "breaker", name,
                      "circuit breaker opened after " +
                          std::to_string(d.consecutive_timeouts) +
                          " consecutive timeouts");
  }
}

void EmsHealthTracker::close_breaker(const std::string& name, Domain& d) {
  d.state = BreakerState::kClosed;
  ++stats_.closes;
  if (telemetry_ != nullptr) {
    telemetry_
        ->metrics()
        .counter("griphon_controller_ems_breaker_closed_total",
                 "Circuit-breaker close transitions", {{"domain", name}})
        ->inc();
    gauge_set(name, 0.0);
    telemetry_->event(telemetry::Severity::kInfo, "breaker", name,
                      "circuit breaker closed (probe succeeded)");
  }
}

void EmsHealthTracker::gauge_set(const std::string& name, double value) {
  if (telemetry_ == nullptr) return;
  telemetry_
      ->metrics()
      .gauge("griphon_controller_ems_breaker_open",
             "1 = breaker open, 0.5 = half-open, 0 = closed",
             {{"domain", name}})
      ->set(value);
}

}  // namespace griphon::core
