#include "telemetry/timeline.hpp"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <sstream>
#include <vector>

namespace griphon::telemetry {

namespace {

std::string fmt_secs(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

}  // namespace

std::string TimelineReport::render(CorrelationTag tag,
                                   std::size_t width) const {
  const std::vector<const Span*> tagged = tracer_->for_tag(tag);
  if (tagged.empty()) return {};

  SimTime t0 = tagged.front()->start;
  SimTime t1 = tagged.front()->end;
  for (const Span* s : tagged) {
    t0 = std::min(t0, s->start);
    t1 = std::max(t1, s->end);
  }
  const double total = std::max(to_seconds(t1 - t0), 1e-9);

  // Column widths for alignment: name (indented), offset, duration.
  std::vector<const Span*> roots;
  for (const Span* s : tagged) {
    const Span* p = tracer_->find(s->parent);
    if (s->parent == 0 || p == nullptr || p->tag != tag) roots.push_back(s);
  }
  std::stable_sort(roots.begin(), roots.end(),
                   [](const Span* a, const Span* b) {
                     return a->start < b->start;
                   });

  struct Row {
    const Span* span;
    std::size_t depth;
  };
  std::vector<Row> rows;
  const std::function<void(const Span*, std::size_t)> walk =
      [&](const Span* s, std::size_t depth) {
        rows.push_back({s, depth});
        auto kids = tracer_->children_of(s->id);
        std::stable_sort(kids.begin(), kids.end(),
                         [](const Span* a, const Span* b) {
                           return a->start < b->start;
                         });
        for (const Span* k : kids)
          if (k->tag == tag) walk(k, depth + 1);
      };
  for (const Span* r : roots) walk(r, 0);

  std::size_t name_w = 0;
  for (const Row& r : rows)
    name_w = std::max(name_w, 2 * r.depth + r.span->name.size());

  std::ostringstream os;
  os << "timeline tag=" << tag << "  total=" << fmt_secs(total) << "s\n";
  for (const Row& r : rows) {
    const Span* s = r.span;
    const double off = to_seconds(s->start - t0);
    const double dur = to_seconds(s->duration());
    const auto bar_off = static_cast<std::size_t>(
        off / total * static_cast<double>(width));
    auto bar_len = static_cast<std::size_t>(
        dur / total * static_cast<double>(width) + 0.5);
    bar_len = std::max<std::size_t>(bar_len, 1);
    if (bar_off + bar_len > width) bar_len = width - bar_off;

    std::string label(2 * r.depth, ' ');
    label += s->name;
    os << std::left << std::setw(static_cast<int>(name_w)) << label
       << "  " << std::right << std::setw(9) << fmt_secs(off) << "s"
       << "  " << std::setw(9) << fmt_secs(dur) << "s  |";
    os << std::string(bar_off, ' ')
       << std::string(bar_len, s->ok ? '#' : 'x')
       << std::string(width - bar_off - bar_len, ' ') << "|";
    if (!s->done) os << " (open)";
    const std::string& detail = tracer_->detail(*s);
    if (!detail.empty()) os << " " << detail;
    os << "\n";
  }
  return os.str();
}

std::string TimelineReport::to_json(CorrelationTag tag) const {
  return tracer_->to_json(tag);
}

}  // namespace griphon::telemetry
