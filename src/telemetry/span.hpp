// Phase-span tracing layered on simulated time.
//
// A Span is one timed phase of an operation (a path computation, one EMS
// command dialogue, a whole connection setup). Spans nest through parent
// links and carry a correlation tag — by convention
// core::telemetry_tag(ConnectionId), i.e. the connection id offset past
// the 0 = untagged sentinel
// — so every span of one connection's lifecycle can be pulled out as a
// timeline: setup decomposes into path_computation → per-EMS-command
// spans → setup done; restoration into detect → localize → replan →
// reprovision (paper Table 2 / §3.2 decompositions).
//
// The tracer is append-only and query-oriented; it does not sample and
// does not thread. Components that hold no Telemetry pointer never create
// spans (no-sink fast path).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace griphon::telemetry {

/// Span handle. 0 is the null span: end()/record() with parent 0 means
/// "root", end(0) is a no-op — instrumentation can pass handles around
/// unconditionally.
using SpanId = std::uint64_t;

/// Correlation tag grouping spans of one operation across components; by
/// convention core::telemetry_tag(ConnectionId) = id value + 1.
/// 0 = untagged (global/plant spans).
using CorrelationTag = std::uint64_t;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  CorrelationTag tag = 0;
  std::string name;    ///< e.g. "connection_setup", "ot.tune", "replan"
  std::string actor;   ///< e.g. "controller", "failure-manager"
  std::string detail;  ///< free-form, filled at end()
  SimTime start{};
  SimTime end{};
  bool done = false;
  bool ok = true;

  [[nodiscard]] SimTime duration() const noexcept { return end - start; }
};

/// Span ids are dense (each start()/record() takes the next one), so the
/// store needs no index: id `first_ + i` is spans_[i], and clear() moves
/// first_ past every id handed out so far. The store is a deque, so
/// appends never move a stored span: a pointer or reference from spans(),
/// find(), for_tag() or children_of() stays valid until clear().
class SpanTracer {
 public:
  /// Open a span at `now`. A zero tag inherits the parent's tag, so only
  /// the root of an operation needs explicit correlation.
  SpanId start(std::string name, std::string actor, CorrelationTag tag,
               SpanId parent, SimTime now);

  /// Close a span. No-op for id 0, unknown ids, or already-closed spans —
  /// instrumentation on error paths may double-close safely.
  void end(SpanId id, SimTime now, bool ok = true, std::string detail = {});

  /// Record a completed span retroactively (for phases whose start was
  /// only known in hindsight, e.g. detect = fiber-cut → first alarm).
  SpanId record(std::string name, std::string actor, CorrelationTag tag,
                SpanId parent, SimTime start, SimTime end, bool ok = true,
                std::string detail = {});

  [[nodiscard]] const std::deque<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const Span* find(SpanId id) const;
  [[nodiscard]] std::vector<const Span*> for_tag(CorrelationTag tag) const;
  [[nodiscard]] std::vector<const Span*> children_of(SpanId id) const;
  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }
  void clear();

  /// JSON array of spans (tag 0 = every span) for offline tooling; times
  /// in seconds.
  [[nodiscard]] std::string to_json(CorrelationTag tag = 0) const;

 private:
  SpanId append(Span s);

  std::deque<Span> spans_;
  SpanId first_ = 1;  ///< id of spans_.front()
  SpanId next_ = 1;
  std::size_t open_ = 0;
};

}  // namespace griphon::telemetry
