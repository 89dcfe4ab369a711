#include "telemetry/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::telemetry {

void TimeSeries::push(SimTime at, double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  last_ = value;
  if (points_.size() == capacity_) {
    points_.pop_front();
    ++dropped_;
  }
  points_.push_back({at, value});
}

TimeSeries::Rollup TimeSeries::rollup() const noexcept {
  Rollup r;
  r.count = count_;
  r.min = min_;
  r.max = max_;
  r.mean = count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  r.last = last_;
  return r;
}

std::vector<double> TimeSeries::window(SimTime from, SimTime until) const {
  std::vector<double> out;
  for (const Point& p : points_)
    if (p.at >= from && p.at <= until) out.push_back(p.value);
  return out;
}

std::string TimeSeries::spark(std::size_t width) const {
  // 9 ASCII levels, low to high.
  static constexpr char kRamp[] = {'.', ':', '-', '=', '+',
                                   '*', '#', '%', '@'};
  static constexpr int kLevels = 9;
  if (points_.empty() || width == 0) return {};
  const std::size_t n = std::min(width, points_.size());
  const std::size_t skip = points_.size() - n;
  double lo = 0;
  double hi = 0;
  bool first = true;
  std::size_t i = 0;
  for (const Point& p : points_) {
    if (i++ < skip) continue;
    if (first) {
      lo = hi = p.value;
      first = false;
    } else {
      lo = std::min(lo, p.value);
      hi = std::max(hi, p.value);
    }
  }
  std::string out;
  out.reserve(n);
  const double span = hi - lo;
  i = 0;
  for (const Point& p : points_) {
    if (i++ < skip) continue;
    int level = kLevels / 2;
    if (span > 0) {
      level = static_cast<int>((p.value - lo) / span * (kLevels - 1) + 0.5);
      level = std::clamp(level, 0, kLevels - 1);
    }
    out.push_back(kRamp[level]);
  }
  return out;
}

GaugeSampler::GaugeSampler(sim::Engine* engine, Telemetry* telemetry,
                           std::size_t ring_capacity)
    : engine_(engine),
      telemetry_(telemetry),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

GaugeSampler::~GaugeSampler() { stop(); }

void GaugeSampler::add_probe(std::string name, std::string unit,
                             std::function<double()> probe) {
  for (Probe& p : probes_) {
    if (p.name == name) {
      p.unit = std::move(unit);
      p.fn = std::move(probe);
      return;
    }
  }
  Probe p;
  p.name = std::move(name);
  p.unit = std::move(unit);
  p.fn = std::move(probe);
  p.series = TimeSeries{ring_capacity_};
  probes_.push_back(std::move(p));
  if (telemetry_ != nullptr)
    telemetry_->metrics()
        .gauge("griphon_sampler_probes_registered",
               "Probes registered with the gauge sampler")
        ->set(static_cast<double>(probes_.size()));
}

void GaugeSampler::start(SimTime period) {
  stop();
  period_ = period.count() > 0 ? period : SimTime{1};
  running_ = true;
  sample_now();
  schedule_tick();
}

void GaugeSampler::stop() {
  if (!running_) return;
  running_ = false;
  engine_->cancel(pending_);
  pending_ = sim::EventHandle{};
}

void GaugeSampler::schedule_tick() {
  pending_ = engine_->schedule(period_, [this] {
    if (!running_) return;
    sample_now();
    schedule_tick();
  });
}

void GaugeSampler::sample_now() {
  const SimTime now = engine_->now();
  for (Probe& p : probes_) {
    const double v = p.fn ? p.fn() : 0.0;
    p.series.push(now, std::isfinite(v) ? v : 0.0);
  }
  ++ticks_;
  if (telemetry_ != nullptr) {
    if (ticks_total_ == nullptr)
      ticks_total_ = telemetry_->metrics().counter(
          "griphon_sampler_ticks_total",
          "Sampling ticks taken by the gauge sampler");
    ticks_total_->inc();
  }
}

std::vector<std::string> GaugeSampler::names() const {
  std::vector<std::string> out;
  out.reserve(probes_.size());
  for (const Probe& p : probes_) out.push_back(p.name);
  return out;
}

const TimeSeries* GaugeSampler::series(const std::string& name) const {
  for (const Probe& p : probes_)
    if (p.name == name) return &p.series;
  return nullptr;
}

const std::string* GaugeSampler::unit_of(const std::string& name) const {
  for (const Probe& p : probes_)
    if (p.name == name) return &p.unit;
  return nullptr;
}

namespace {
void emit_rollup(std::ostream& os, const TimeSeries::Rollup& r) {
  os << "\"count\":" << r.count << ",\"min\":" << std::fixed
     << std::setprecision(6) << r.min << ",\"max\":" << r.max
     << ",\"mean\":" << r.mean << ",\"last\":" << r.last;
}
}  // namespace

std::string GaugeSampler::to_json() const {
  std::ostringstream os;
  os << "{\"period_s\":" << std::fixed << std::setprecision(6)
     << to_seconds(period_) << ",\"ticks\":" << ticks_ << ",\"series\":[";
  bool first = true;
  for (const Probe& p : probes_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":" << json_quote(p.name)
       << ",\"unit\":" << json_quote(p.unit) << ",";
    emit_rollup(os, p.series.rollup());
    os << ",\"dropped\":" << p.series.dropped_count() << ",\"points\":[";
    bool first_pt = true;
    for (const TimeSeries::Point& pt : p.series.points()) {
      if (!first_pt) os << ",";
      first_pt = false;
      os << "[" << std::fixed << std::setprecision(6) << to_seconds(pt.at)
         << "," << pt.value << "]";
    }
    os << "]}";
  }
  os << "\n]}";
  return os.str();
}

std::string GaugeSampler::to_csv() const {
  std::ostringstream os;
  os << "t_seconds";
  for (const Probe& p : probes_) os << "," << p.name;
  os << "\n";
  // Rings share capacity and cadence, so row i of every series carries
  // the same timestamp; the shortest ring bounds the exported rows.
  std::size_t rows = 0;
  bool any = false;
  for (const Probe& p : probes_) {
    const std::size_t n = p.series.points().size();
    rows = any ? std::min(rows, n) : n;
    any = true;
  }
  if (!any) return os.str();
  for (std::size_t i = 0; i < rows; ++i) {
    bool wrote_t = false;
    for (const Probe& p : probes_) {
      const std::size_t n = p.series.points().size();
      const TimeSeries::Point& pt = p.series.points()[n - rows + i];
      if (!wrote_t) {
        os << std::fixed << std::setprecision(6) << to_seconds(pt.at);
        wrote_t = true;
      }
      os << "," << std::fixed << std::setprecision(6) << pt.value;
    }
    os << "\n";
  }
  return os.str();
}

std::string GaugeSampler::rollups_json() const {
  std::ostringstream os;
  os << "{\"series\":[";
  bool first = true;
  for (const Probe& p : probes_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":" << json_quote(p.name)
       << ",\"unit\":" << json_quote(p.unit) << ",";
    emit_rollup(os, p.series.rollup());
    os << "}";
  }
  os << "\n]}";
  return os.str();
}

}  // namespace griphon::telemetry
