#include "telemetry/event_log.hpp"

#include <iomanip>
#include <sstream>

#include "telemetry/json_util.hpp"

namespace griphon::telemetry {

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kDebug:
      return "debug";
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "?";
}

void EventLog::set_capacity(std::size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  while (events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

void EventLog::log(SimTime when, Severity severity, std::string category,
                   std::string actor, std::string message,
                   CorrelationTag tag) {
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  Event e;
  e.when = when;
  e.severity = severity;
  e.category = std::move(category);
  e.actor = std::move(actor);
  e.message = std::move(message);
  e.tag = tag;
  events_.push_back(std::move(e));
}

std::vector<const Event*> EventLog::at_least(Severity floor) const {
  std::vector<const Event*> out;
  for (const Event& e : events_)
    if (e.severity >= floor) out.push_back(&e);
  return out;
}

std::vector<const Event*> EventLog::for_category(
    const std::string& category) const {
  std::vector<const Event*> out;
  for (const Event& e : events_)
    if (e.category == category) out.push_back(&e);
  return out;
}

void EventLog::clear() {
  events_.clear();
  dropped_ = 0;
}

std::string EventLog::to_json() const {
  std::ostringstream os;
  os << "{\"dropped\":" << dropped_ << ",\"events\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "{\"t\":" << std::fixed << std::setprecision(6)
       << to_seconds(e.when) << ",\"severity\":\"" << to_string(e.severity)
       << "\",\"category\":" << json_quote(e.category)
       << ",\"actor\":" << json_quote(e.actor)
       << ",\"message\":" << json_quote(e.message) << ",\"tag\":" << e.tag
       << "}";
  }
  os << "]}";
  return os.str();
}

std::string EventLog::render(std::size_t last_n) const {
  std::ostringstream os;
  os << "event log: " << events_.size() << " event(s)";
  if (dropped_ > 0) os << " (" << dropped_ << " dropped)";
  os << "\n";
  const std::size_t skip =
      events_.size() > last_n ? events_.size() - last_n : 0;
  std::size_t i = 0;
  for (const Event& e : events_) {
    if (i++ < skip) continue;
    os << "  " << std::fixed << std::setprecision(3) << std::setw(10)
       << to_seconds(e.when) << "s [" << std::setw(5) << to_string(e.severity)
       << "] " << std::setw(9) << e.category << "  " << e.actor << ": "
       << e.message;
    if (e.tag != 0) os << " (tag " << e.tag << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace griphon::telemetry
