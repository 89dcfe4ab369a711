// Structured operations event log: the "what happened and when" record
// that counters flatten away and spans scatter across trees.
//
// Components append severity-tagged events at notable transitions —
// connection lifecycle changes, EMS command retries, breaker open/close,
// resync audits, injected faults, SLO alerts — through the Telemetry
// facade (one pointer test when telemetry is off, same as metrics/spans).
//
// The log is a bounded ring: when full, the oldest event is dropped and
// `dropped_count` grows, so long soaks stay O(capacity) in memory while
// truncation remains visible. Events also become Chrome-trace instant
// events through TraceExporter, which is why they carry a correlation
// tag and an actor alongside the message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "telemetry/span.hpp"

namespace griphon::telemetry {

enum class Severity : std::uint8_t { kDebug, kInfo, kWarn, kError };

[[nodiscard]] const char* to_string(Severity s) noexcept;

struct Event {
  SimTime when{};
  Severity severity = Severity::kInfo;
  std::string category;  ///< "lifecycle", "retry", "breaker", "resync",
                         ///< "fault", "slo", ...
  std::string actor;     ///< e.g. "controller", "roadm-ems", "chaos"
  std::string message;
  CorrelationTag tag = 0;  ///< connection correlation (0 = untagged)
};

/// References and pointers into the ring (events(), at_least(),
/// for_category()) stay valid until the next log() may evict them.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Shrinking below the current size drops the oldest events (counted).
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  void log(SimTime when, Severity severity, std::string category,
           std::string actor, std::string message, CorrelationTag tag = 0);

  [[nodiscard]] const std::deque<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  /// Events evicted by the ring bound since construction/clear().
  [[nodiscard]] std::uint64_t dropped_count() const noexcept {
    return dropped_;
  }
  /// Events at severity >= `floor` (insertion order preserved).
  [[nodiscard]] std::vector<const Event*> at_least(Severity floor) const;
  [[nodiscard]] std::vector<const Event*> for_category(
      const std::string& category) const;

  void clear();

  /// {"dropped":N,"events":[{...},...]} — times in seconds, newest last.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable tail (newest `last_n` events) for the shell.
  [[nodiscard]] std::string render(std::size_t last_n = 20) const;

 private:
  std::deque<Event> events_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace griphon::telemetry
