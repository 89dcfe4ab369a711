#include "telemetry/span.hpp"

#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "telemetry/json_util.hpp"

namespace griphon::telemetry {

const std::string& SpanTracer::intern(std::string_view s) {
  auto it = pool_.find(s);
  if (it == pool_.end()) it = pool_.emplace(s).first;
  return *it;
}

Span& SpanTracer::append(std::string_view name, std::string_view actor,
                         CorrelationTag tag, SpanId parent, SimTime start) {
  if (tag == 0 && parent != 0) {
    if (const Span* p = find(parent)) tag = p->tag;
  }
  Span& s = spans_.emplace_back(intern(name), intern(actor));
  s.id = next_++;
  s.parent = parent;
  s.tag = tag;
  s.start = start;
  s.end = start;
  return s;
}

void SpanTracer::set_detail(Span& span, std::string_view detail) {
  if (detail.empty()) return;
  if (details_.size() >= std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("telemetry: span detail store is full");
  details_.emplace_back(detail);
  span.detail_slot = static_cast<std::uint32_t>(details_.size());
}

SpanId SpanTracer::start(std::string_view name, std::string_view actor,
                         CorrelationTag tag, SpanId parent, SimTime now) {
  ++open_;
  return append(name, actor, tag, parent, now).id;
}

void SpanTracer::end(SpanId id, SimTime now, bool ok,
                     std::string_view detail) {
  if (id == 0) return;
  // find() is the one id lookup; the span it returns is ours to update.
  Span* s = const_cast<Span*>(find(id));
  if (s == nullptr || s->done) return;
  s->end = now;
  s->done = true;
  s->ok = ok;
  set_detail(*s, detail);
  --open_;
}

SpanId SpanTracer::record(std::string_view name, std::string_view actor,
                          CorrelationTag tag, SpanId parent, SimTime start,
                          SimTime end, bool ok, std::string_view detail) {
  Span& s = append(name, actor, tag, parent, start);
  s.end = end;
  s.done = true;
  s.ok = ok;
  set_detail(s, detail);
  return s.id;
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

const std::string& SpanTracer::detail(const Span& span) const noexcept {
  static const std::string kNone;
  return span.detail_slot == 0 ? kNone : details_[span.detail_slot - 1];
}

void SpanTracer::clear() {
  spans_.clear();
  details_.clear();
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
    json_escape(os, detail(s));
    os << "\"}";
  }
  os << "]";
  return os.str();
}

}  // namespace griphon::telemetry
