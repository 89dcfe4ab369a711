// Telemetry facade: one MetricsRegistry + one SpanTracer + one EventLog
// per deployment, stamped with the deployment's simulated clock.
//
// Attach with NetworkModel::attach_telemetry(&t) before driving traffic;
// every instrumented component (GriphonController, EmsServer, RwaEngine,
// FailureManager, MeshRestorer, the plant itself) reaches it through the
// model and treats a null pointer as "telemetry off" — the no-sink fast
// path is a single pointer test, no allocation, no lookup.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sim/engine.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace griphon::telemetry {

class Telemetry {
 public:
  explicit Telemetry(sim::Engine* engine) : engine_(engine) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] SpanTracer& spans() noexcept { return spans_; }
  [[nodiscard]] const SpanTracer& spans() const noexcept { return spans_; }
  [[nodiscard]] EventLog& events() noexcept { return events_; }
  [[nodiscard]] const EventLog& events() const noexcept { return events_; }
  [[nodiscard]] SimTime now() const noexcept { return engine_->now(); }

  // Convenience wrappers stamping the simulated clock. Names and actors
  // are interned by the tracer, so passing a view builds no string.
  SpanId span_start(std::string_view name, std::string_view actor,
                    CorrelationTag tag = 0, SpanId parent = 0) {
    return spans_.start(name, actor, tag, parent, engine_->now());
  }
  void span_end(SpanId id, bool ok = true, std::string_view detail = {}) {
    spans_.end(id, engine_->now(), ok, detail);
  }
  SpanId span_record(std::string_view name, std::string_view actor,
                     CorrelationTag tag, SpanId parent, SimTime start,
                     SimTime end, bool ok = true,
                     std::string_view detail = {}) {
    return spans_.record(name, actor, tag, parent, start, end, ok, detail);
  }
  /// Append a structured event stamped with the simulated clock.
  void event(Severity severity, std::string category, std::string actor,
             std::string message, CorrelationTag tag = 0) {
    events_.log(engine_->now(), severity, std::move(category),
                std::move(actor), std::move(message), tag);
  }

  // --- failure-detect bookkeeping -----------------------------------------
  // The plant knows when a fiber died; the failure manager only sees the
  // first alarm. note_link_failed() parks the cut instant so the manager
  // can retroactively record the `detect` span (cut → first alarm).
  void note_link_failed(std::uint64_t link) {
    pending_detect_[link] = engine_->now();
  }
  /// Record the `detect` span for `link` if a cut instant was noted;
  /// returns the span id (0 if no pending note).
  SpanId close_detect(std::uint64_t link) {
    const auto it = pending_detect_.find(link);
    if (it == pending_detect_.end()) return 0;
    const SimTime cut_at = it->second;
    pending_detect_.erase(it);
    return spans_.record("detect", "failure-manager", 0, 0, cut_at,
                         engine_->now(), true,
                         "link " + std::to_string(link));
  }

 private:
  sim::Engine* engine_;
  MetricsRegistry metrics_;
  SpanTracer spans_;
  EventLog events_;
  std::unordered_map<std::uint64_t, SimTime> pending_detect_;
};

}  // namespace griphon::telemetry
