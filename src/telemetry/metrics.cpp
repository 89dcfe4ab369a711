#include "telemetry/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace griphon::telemetry {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty() || !std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::logic_error("telemetry: histogram bounds must be ascending");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, rounded up as in nearest-rank).
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (static_cast<double>(cum) >= rank && buckets_[i] > 0) {
      if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const auto below = static_cast<double>(cum - buckets_[i]);
      const double frac =
          (rank - below) / static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds_.back();
}

std::vector<double> duration_buckets() {
  return {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
          2.5,   5.0,   10.0, 20.0,  30.0, 45.0, 60.0, 75.0, 90.0,
          120.0, 180.0, 300.0};
}

std::string MetricsRegistry::label_key(const Labels& labels) {
  if (labels.empty()) return {};
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first;
    out += "=\"";
    for (const char c : sorted[i].second) {
      if (c == '\n') {  // literal newline would break the exposition format
        out += "\\n";
        continue;
      }
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

MetricsRegistry::Family& MetricsRegistry::family_for(
    const std::string& name, const std::string& help, Kind kind) {
  ++by_name_calls_;
  auto& f = families_[name];
  if (f.samples.empty()) {
    f.kind = kind;
    f.help = help;
  }
  if (f.kind != kind)
    throw std::logic_error("telemetry: " + name +
                           " already registered as a different kind");
  return f;
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  auto& s = family_for(name, help, Kind::kCounter).samples[label_key(labels)];
  if (s.c == nullptr) {
    s.c = std::make_unique<Counter>();
    ++series_;
  }
  return s.c.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  auto& s = family_for(name, help, Kind::kGauge).samples[label_key(labels)];
  if (s.g == nullptr) {
    s.g = std::make_unique<Gauge>();
    ++series_;
  }
  return s.g.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  auto& s =
      family_for(name, help, Kind::kHistogram).samples[label_key(labels)];
  if (s.h == nullptr) {
    s.h = std::make_unique<Histogram>(std::move(bounds));
    ++series_;
  }
  return s.h.get();
}

const MetricsRegistry::Sample* MetricsRegistry::find_sample(
    const std::string& name, const Labels& labels) const {
  ++by_name_calls_;
  const auto it = families_.find(name);
  if (it == families_.end()) return nullptr;
  const auto sit = it->second.samples.find(label_key(labels));
  return sit == it->second.samples.end() ? nullptr : &sit->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             const Labels& labels) const {
  const Sample* s = find_sample(name, labels);
  return s == nullptr ? nullptr : s->c.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name,
                                         const Labels& labels) const {
  const Sample* s = find_sample(name, labels);
  return s == nullptr ? nullptr : s->g.get();
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  const Sample* s = find_sample(name, labels);
  return s == nullptr ? nullptr : s->h.get();
}

std::vector<const Counter*> MetricsRegistry::counter_family(
    const std::string& name) const {
  ++by_name_calls_;
  std::vector<const Counter*> out;
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kCounter) return out;
  out.reserve(it->second.samples.size());
  for (const auto& [labels, s] : it->second.samples) out.push_back(s.c.get());
  return out;
}

namespace {

/// Plain decimal formatting (no exponent surprises for small counts).
std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

namespace {

/// Merge an `le` bucket label into an existing label block ("" or
/// `{k="v",...}`), keeping Prometheus exposition syntax.
std::string with_le(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return labels.substr(0, labels.size() - 1) + ",le=\"" + le + "\"}";
}

/// HELP text escaping per the exposition format: backslash and newline
/// only (quotes are legal in HELP).
std::string escape_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, f] : families_) {
    os << "# HELP " << name << ' ' << escape_help(f.help) << '\n';
    switch (f.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        for (const auto& [labels, s] : f.samples)
          os << name << labels << ' ' << s.c->value() << '\n';
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        for (const auto& [labels, s] : f.samples)
          os << name << labels << ' ' << num(s.g->value()) << '\n';
        break;
      case Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        for (const auto& [labels, s] : f.samples) {
          const std::vector<std::uint64_t>& buckets = s.h->buckets();
          const std::vector<double>& bounds = s.h->bounds();
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < bounds.size(); ++i) {
            cum += buckets[i];
            os << name << "_bucket" << with_le(labels, num(bounds[i]))
               << ' ' << cum << '\n';
          }
          cum += buckets.back();  // overflow
          os << name << "_bucket" << with_le(labels, "+Inf") << ' ' << cum
             << '\n';
          os << name << "_sum" << labels << ' ' << num(s.h->sum()) << '\n';
          os << name << "_count" << labels << ' ' << cum << '\n';
        }
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_json_rows(const std::string& bench) const {
  std::ostringstream os;
  bool first = true;
  const auto esc = [](const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  const auto row = [&](const std::string& metric, double value,
                       const std::string& unit) {
    os << (first ? "" : ",") << "\n  {\"bench\": \"" << bench
       << "\", \"metric\": \"" << esc(metric)
       << "\", \"value\": " << num(value) << ", \"unit\": \"" << unit
       << "\"}";
    first = false;
  };
  os << "[";
  for (const auto& [name, f] : families_) {
    for (const auto& [labels, s] : f.samples) {
      switch (f.kind) {
        case Kind::kCounter:
          row(name + labels, static_cast<double>(s.c->value()), "count");
          break;
        case Kind::kGauge:
          row(name + labels, s.g->value(), "value");
          break;
        case Kind::kHistogram: {
          const bool secs = name.size() > 8 &&
                            name.compare(name.size() - 8, 8, "_seconds") == 0;
          const std::string unit = secs ? "s" : "value";
          row(name + "_count" + labels, static_cast<double>(s.h->count()),
              "count");
          row(name + "_sum" + labels, s.h->sum(), unit);
          row(name + "_p50" + labels, s.h->quantile(0.50), unit);
          row(name + "_p95" + labels, s.h->quantile(0.95), unit);
          row(name + "_p99" + labels, s.h->quantile(0.99), unit);
          break;
        }
      }
    }
  }
  os << "\n]\n";
  return os.str();
}

bool MetricsRegistry::name_ok(const std::string& name) noexcept {
  constexpr const char* kPrefix = "griphon_";
  if (name.rfind(kPrefix, 0) != 0) return false;
  std::size_t tokens = 0;
  std::size_t token_len = 0;
  for (const char c : name) {
    if (c == '_') {
      if (token_len == 0) return false;  // empty token ("__" or leading '_')
      ++tokens;
      token_len = 0;
      continue;
    }
    if ((c < 'a' || c > 'z') && (c < '0' || c > '9')) return false;
    ++token_len;
  }
  if (token_len == 0) return false;  // trailing '_'
  ++tokens;
  return tokens >= 3;  // griphon + layer + name
}

std::vector<std::string> MetricsRegistry::invalid_names() const {
  // The scheme governs family names; label blocks are free-form.
  std::vector<std::string> bad;
  for (const auto& [name, f] : families_)
    if (!name_ok(name)) bad.push_back(name);
  return bad;
}

}  // namespace griphon::telemetry
