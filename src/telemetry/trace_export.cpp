#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::telemetry {

namespace {

// One span prepared for emission: effective end resolved (open spans are
// cut at the export instant) and lane (tid) assigned.
struct Prepared {
  const Span* span = nullptr;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  bool incomplete = false;
  int pid = 0;
  int tid = -1;
};

// A lane is a Chrome "thread": a stack of currently open intervals. A
// span fits if it nests inside the innermost open interval or starts at
// or after the lane's last activity.
struct Lane {
  std::vector<const Prepared*> open;
};

void pop_closed(Lane& lane, std::int64_t at_us) {
  while (!lane.open.empty() && lane.open.back()->end_us <= at_us)
    lane.open.pop_back();
}

bool fits(Lane& lane, const Prepared& p) {
  pop_closed(lane, p.start_us);
  if (lane.open.empty()) return true;
  const Prepared* top = lane.open.back();
  return p.start_us >= top->start_us && p.end_us <= top->end_us;
}

void emit_common(std::ostream& os, const char* ph, std::int64_t ts_us,
                 int pid, int tid) {
  os << "\"ph\":\"" << ph << "\",\"ts\":" << ts_us << ",\"pid\":" << pid
     << ",\"tid\":" << tid;
}

void emit_span_args(std::ostream& os, const Span& s,
                    const std::string& detail, bool closing,
                    bool incomplete) {
  os << ",\"args\":{";
  bool first = true;
  const auto field = [&](const char* key) -> std::ostream& {
    if (!first) os << ",";
    first = false;
    os << "\"" << key << "\":";
    return os;
  };
  if (s.tag != 0) {
    field("tag") << s.tag;
    field("connection") << (s.tag - 1);
  }
  if (closing) {
    field("ok") << (s.ok ? "true" : "false");
    if (!detail.empty()) field("detail") << json_quote(detail);
    if (incomplete) field("incomplete") << "true";
  }
  os << "}";
}

}  // namespace

std::string TraceExporter::to_json(const SpanTracer& tracer,
                                   SimTime export_now,
                                   const EventLog* events) const {
  const std::int64_t now_us = export_now.count();

  // --- actor → pid table, in first-appearance order (deterministic:
  // span/event insertion order is itself deterministic under the sim).
  std::vector<std::string> actors;
  std::unordered_map<std::string, int> pid_of;
  const auto pid_for = [&](const std::string& actor) {
    const auto it = pid_of.find(actor);
    if (it != pid_of.end()) return it->second;
    const int pid = static_cast<int>(actors.size()) + 1;
    actors.push_back(actor.empty() ? "(unknown)" : actor);
    pid_of.emplace(actor, pid);
    return pid;
  };

  std::vector<Prepared> prepared;
  prepared.reserve(tracer.spans().size());
  for (const Span& s : tracer.spans()) {
    Prepared p;
    p.span = &s;
    p.start_us = s.start.count();
    p.incomplete = !s.done;
    p.end_us = s.done ? s.end.count() : std::max(p.start_us, now_us);
    if (p.end_us < p.start_us) p.end_us = p.start_us;
    p.pid = pid_for(s.actor);
    prepared.push_back(p);
  }

  // --- lane (tid) assignment per pid. Sort by (start asc, end desc, id)
  // = pre-order of the nesting forest; prefer the parent's lane so a
  // connection's command chain stays visually together.
  std::vector<Prepared*> order;
  order.reserve(prepared.size());
  for (Prepared& p : prepared) order.push_back(&p);
  std::sort(order.begin(), order.end(),
            [](const Prepared* a, const Prepared* b) {
              if (a->start_us != b->start_us) return a->start_us < b->start_us;
              if (a->end_us != b->end_us) return a->end_us > b->end_us;
              return a->span->id < b->span->id;
            });
  std::map<int, std::vector<Lane>> lanes_of;  // pid → lanes
  std::unordered_map<SpanId, Prepared*> by_id;
  for (Prepared& p : prepared) by_id.emplace(p.span->id, &p);
  for (Prepared* p : order) {
    std::vector<Lane>& lanes = lanes_of[p->pid];
    int lane = -1;
    const auto parent = by_id.find(p->span->parent);
    if (parent != by_id.end() && parent->second->pid == p->pid &&
        parent->second->tid >= 0 &&
        fits(lanes[static_cast<std::size_t>(parent->second->tid)], *p)) {
      lane = parent->second->tid;
    }
    for (int i = 0; lane < 0 && i < static_cast<int>(lanes.size()); ++i)
      if (fits(lanes[static_cast<std::size_t>(i)], *p)) lane = i;
    if (lane < 0) {
      lanes.emplace_back();
      lane = static_cast<int>(lanes.size()) - 1;
    }
    p->tid = lane;
    lanes[static_cast<std::size_t>(lane)].open.push_back(p);
  }

  // Instant events ride a dedicated lane one past the span lanes of
  // their actor's pid, so timestamps stay monotonic per tid even though
  // instants are emitted after all span events. Register event actors
  // now so they get process_name metadata below.
  const bool with_instants =
      options_.include_instants && events != nullptr && events->size() > 0;
  if (with_instants)
    for (const Event& e : events->events()) pid_for(e.actor);
  const auto instant_tid = [&](int pid) {
    const auto it = lanes_of.find(pid);
    return it == lanes_of.end() ? 0 : static_cast<int>(it->second.size());
  };

  // --- emission. Per (pid, tid) replay the lane as a stack: B on span
  // entry after closing (E) every earlier span that ended by then; flush
  // E for whatever is still open at the end. ts is non-decreasing per
  // lane by construction.
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first_event = true;
  const auto sep = [&] {
    if (!first_event) os << ",";
    first_event = false;
    os << "\n";
  };

  // Metadata: process_name / thread_name events.
  for (std::size_t i = 0; i < actors.size(); ++i) {
    sep();
    os << "{\"name\":\"process_name\",";
    emit_common(os, "M", 0, static_cast<int>(i) + 1, 0);
    os << ",\"args\":{\"name\":" << json_quote(actors[i]) << "}}";
  }
  for (const auto& [pid, lanes] : lanes_of) {
    for (std::size_t t = 0; t < lanes.size(); ++t) {
      sep();
      os << "{\"name\":\"thread_name\",";
      emit_common(os, "M", 0, pid, static_cast<int>(t));
      os << ",\"args\":{\"name\":\"lane-" << t << "\"}}";
    }
  }
  if (with_instants) {
    std::map<int, bool> instant_pids;
    for (const Event& e : events->events())
      instant_pids[pid_for(e.actor)] = true;
    for (const auto& [pid, unused] : instant_pids) {
      (void)unused;
      sep();
      os << "{\"name\":\"thread_name\",";
      emit_common(os, "M", 0, pid, instant_tid(pid));
      os << ",\"args\":{\"name\":\"events\"}}";
    }
  }

  const auto emit_begin = [&](const Prepared& p) {
    sep();
    os << "{\"name\":" << json_quote(p.span->name) << ",";
    emit_common(os, "B", p.start_us, p.pid, p.tid);
    emit_span_args(os, *p.span, tracer.detail(*p.span), /*closing=*/false,
                   /*incomplete=*/false);
    os << "}";
  };
  const auto emit_end = [&](const Prepared& p) {
    sep();
    os << "{\"name\":" << json_quote(p.span->name) << ",";
    emit_common(os, "E", p.end_us, p.pid, p.tid);
    emit_span_args(os, *p.span, tracer.detail(*p.span), /*closing=*/true,
                   p.incomplete);
    os << "}";
  };

  // Group the pre-ordered spans by (pid, tid), preserving pre-order.
  std::map<std::pair<int, int>, std::vector<const Prepared*>> per_lane;
  for (const Prepared* p : order) per_lane[{p->pid, p->tid}].push_back(p);
  for (const auto& [key, spans] : per_lane) {
    std::vector<const Prepared*> stack;
    for (const Prepared* p : spans) {
      while (!stack.empty() && stack.back()->end_us <= p->start_us) {
        emit_end(*stack.back());
        stack.pop_back();
      }
      emit_begin(*p);
      stack.push_back(p);
    }
    while (!stack.empty()) {
      emit_end(*stack.back());
      stack.pop_back();
    }
  }

  if (with_instants) {
    for (const Event& e : events->events()) {
      sep();
      const int pid = pid_for(e.actor);
      os << "{\"name\":" << json_quote(e.category + ": " + e.message) << ",";
      emit_common(os, "i", e.when.count(), pid, instant_tid(pid));
      os << ",\"s\":\"p\",\"args\":{\"severity\":\""
         << telemetry::to_string(e.severity) << "\"";
      if (e.tag != 0)
        os << ",\"tag\":" << e.tag << ",\"connection\":" << (e.tag - 1);
      os << "}}";
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

std::string TraceExporter::to_json(const Telemetry& telemetry) const {
  return to_json(telemetry.spans(), telemetry.now(), &telemetry.events());
}

}  // namespace griphon::telemetry
