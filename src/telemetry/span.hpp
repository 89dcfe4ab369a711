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
#include <string_view>
#include <unordered_set>
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

/// One span, 64 bytes. `name` and `actor` refer to strings interned in the
/// owning tracer's pool (one copy per distinct string, never moved), so a
/// span stores two pointers instead of two strings. The free-form detail
/// lives out of line in the tracer: only spans that carry one pay for it.
struct Span {
  Span(const std::string& name, const std::string& actor) noexcept
      : name(name), actor(actor) {}

  SpanId id = 0;
  SpanId parent = 0;
  CorrelationTag tag = 0;
  SimTime start{};
  SimTime end{};
  const std::string& name;   ///< e.g. "connection_setup", "ot.tune"
  const std::string& actor;  ///< e.g. "controller", "failure-manager"
  /// 1-based slot of this span's detail in its tracer (0 = none); read
  /// the text through SpanTracer::detail().
  std::uint32_t detail_slot = 0;
  bool done = false;
  bool ok = true;

  [[nodiscard]] SimTime duration() const noexcept { return end - start; }
};
static_assert(sizeof(Span) <= 64, "a span must fit one cache line");

/// Span ids are dense (each start()/record() takes the next one), so the
/// store needs no index: id `first_ + i` is spans_[i], and clear() moves
/// first_ past every id handed out so far. The store is a deque, so
/// appends never move a stored span: a pointer or reference from spans(),
/// find(), for_tag() or children_of() stays valid until clear().
///
/// Names and actors are interned: the pool holds each distinct string
/// once, for the tracer's lifetime (clear() keeps it), so the pool grows
/// with the instrumentation's vocabulary, not with the number of spans.
/// Details are free text and are not interned.
class SpanTracer {
 public:
  SpanTracer() = default;
  // Spans refer into this tracer's pool; a copy would refer into ours.
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Open a span at `now`. A zero tag inherits the parent's tag, so only
  /// the root of an operation needs explicit correlation.
  SpanId start(std::string_view name, std::string_view actor,
               CorrelationTag tag, SpanId parent, SimTime now);

  /// Close a span. No-op for id 0, unknown ids, or already-closed spans —
  /// instrumentation on error paths may double-close safely.
  void end(SpanId id, SimTime now, bool ok = true,
           std::string_view detail = {});

  /// Record a completed span retroactively (for phases whose start was
  /// only known in hindsight, e.g. detect = fiber-cut → first alarm).
  SpanId record(std::string_view name, std::string_view actor,
                CorrelationTag tag, SpanId parent, SimTime start, SimTime end,
                bool ok = true, std::string_view detail = {});

  [[nodiscard]] const std::deque<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const Span* find(SpanId id) const;
  [[nodiscard]] std::vector<const Span*> for_tag(CorrelationTag tag) const;
  [[nodiscard]] std::vector<const Span*> children_of(SpanId id) const;
  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }
  /// `span`'s detail text ("" if it has none); `span` must be one of ours.
  [[nodiscard]] const std::string& detail(const Span& span) const noexcept;
  /// Distinct names and actors interned so far.
  [[nodiscard]] std::size_t interned_count() const noexcept {
    return pool_.size();
  }
  void clear();

  /// JSON array of spans (tag 0 = every span) for offline tooling; times
  /// in seconds.
  [[nodiscard]] std::string to_json(CorrelationTag tag = 0) const;

 private:
  struct PoolHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  Span& append(std::string_view name, std::string_view actor,
               CorrelationTag tag, SpanId parent, SimTime start);
  const std::string& intern(std::string_view s);
  void set_detail(Span& span, std::string_view detail);

  std::unordered_set<std::string, PoolHash, std::equal_to<>> pool_;
  std::deque<Span> spans_;
  std::deque<std::string> details_;
  SpanId first_ = 1;  ///< id of spans_.front()
  SpanId next_ = 1;
  std::size_t open_ = 0;
};

}  // namespace griphon::telemetry
