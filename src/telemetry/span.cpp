#include "telemetry/span.hpp"

#include <iomanip>
#include <sstream>

#include "telemetry/json_util.hpp"

namespace griphon::telemetry {

SpanId SpanTracer::append(Span s) {
  if (s.tag == 0 && s.parent != 0) {
    if (const Span* p = find(s.parent)) s.tag = p->tag;
  }
  s.id = next_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

SpanId SpanTracer::start(std::string name, std::string actor,
                         CorrelationTag tag, SpanId parent, SimTime now) {
  Span s;
  s.parent = parent;
  s.tag = tag;
  s.name = std::move(name);
  s.actor = std::move(actor);
  s.start = now;
  s.end = now;
  ++open_;
  return append(std::move(s));
}

void SpanTracer::end(SpanId id, SimTime now, bool ok, std::string detail) {
  if (id == 0) return;
  // find() is the one id lookup; the span it returns is ours to update.
  Span* s = const_cast<Span*>(find(id));
  if (s == nullptr || s->done) return;
  s->end = now;
  s->done = true;
  s->ok = ok;
  if (!detail.empty()) s->detail = std::move(detail);
  --open_;
}

SpanId SpanTracer::record(std::string name, std::string actor,
                          CorrelationTag tag, SpanId parent, SimTime start,
                          SimTime end, bool ok, std::string detail) {
  Span s;
  s.parent = parent;
  s.tag = tag;
  s.name = std::move(name);
  s.actor = std::move(actor);
  s.detail = std::move(detail);
  s.start = start;
  s.end = end;
  s.done = true;
  s.ok = ok;
  return append(std::move(s));
}

const Span* SpanTracer::find(SpanId id) const {
  return id >= first_ && id < next_ ? &spans_[id - first_] : nullptr;
}

std::vector<const Span*> SpanTracer::for_tag(CorrelationTag tag) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_)
    if (s.tag == tag) out.push_back(&s);
  return out;
}

std::vector<const Span*> SpanTracer::children_of(SpanId id) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_)
    if (s.parent == id) out.push_back(&s);
  return out;
}

void SpanTracer::clear() {
  spans_.clear();
  first_ = next_;
  open_ = 0;
}

std::string SpanTracer::to_json(CorrelationTag tag) const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const Span& s : spans_) {
    if (tag != 0 && s.tag != tag) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"tag\":" << s.tag << ",\"name\":\"";
    json_escape(os, s.name);
    os << "\",\"actor\":\"";
    json_escape(os, s.actor);
    os << "\",\"start\":" << std::fixed << std::setprecision(6)
       << to_seconds(s.start) << ",\"end\":" << to_seconds(s.end)
       << ",\"done\":" << (s.done ? "true" : "false")
       << ",\"ok\":" << (s.ok ? "true" : "false") << ",\"detail\":\"";
    json_escape(os, s.detail);
    os << "\"}";
  }
  os << "]";
  return os.str();
}

}  // namespace griphon::telemetry
