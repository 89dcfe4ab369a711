// Chrome Trace Event JSON export for SpanTracer trees + EventLog events.
//
// The output loads directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Mapping:
//
//  * pid  — one "process" per span actor (controller, roadm-ems, otn-ems,
//           failure-manager, ...), named with a process_name metadata
//           event, so each layer/EMS-domain gets its own swim-lane group.
//  * tid  — spans of one actor are packed into "threads" (lanes): a span
//           goes to the first lane where it either nests inside the
//           lane's innermost open span or starts at/after the lane's last
//           end. Lanes therefore always contain properly nested
//           intervals, which is exactly what B/E duration pairs require.
//  * B/E  — every span becomes a Begin/End pair (not "X" complete
//           events, so trace tooling can verify pairing). Spans still
//           open at export are closed at the export instant and flagged
//           with args {"incomplete": true}.
//  * i    — EventLog entries (faults, breaker trips, retries, SLO
//           alerts) become process-scoped instant events on the actor's
//           pid.
//  * args — correlation: "tag" (telemetry tag) and "connection"
//           (ConnectionId = tag - 1) ride on every tagged span so a
//           whole connection lifecycle can be found with one query.
//
// Timestamps are the span's SimTime in integer microseconds — SimTime's
// native resolution — so export is exact and byte-deterministic: two
// identical seeded runs produce byte-identical trace files.
#pragma once

#include <string>

#include "common/units.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/span.hpp"

namespace griphon::telemetry {

class Telemetry;

class TraceExporter {
 public:
  struct Options {
    bool include_instants = true;  ///< EventLog entries as "i" events
  };

  TraceExporter() = default;
  explicit TraceExporter(Options options) : options_(options) {}

  /// Serialize `tracer` (and optionally `events`) to Chrome Trace Event
  /// JSON. `export_now` closes still-open spans (flagged incomplete).
  [[nodiscard]] std::string to_json(const SpanTracer& tracer,
                                    SimTime export_now,
                                    const EventLog* events = nullptr) const;

  /// Convenience: export a Telemetry facade's spans + event log at its
  /// current sim clock.
  [[nodiscard]] std::string to_json(const Telemetry& telemetry) const;

 private:
  Options options_;
};

}  // namespace griphon::telemetry
