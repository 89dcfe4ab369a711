#include "telemetry/slo.hpp"

#include <iomanip>
#include <sstream>

#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::telemetry {

void SloMonitor::add_objective(Objective objective) {
  State s;
  s.objective = std::move(objective);
  if (telemetry_ != nullptr) {
    s.alert_active = telemetry_->metrics().gauge(
        "griphon_slo_alert_active", "1 while the objective's alert is firing",
        {{"objective", s.objective.name}});
    s.alert_active->set(0);
  }
  objectives_.push_back(std::move(s));
}

void SloMonitor::start(SimTime period) {
  stop();
  period_ = period.count() > 0 ? period : SimTime{1};
  running_ = true;
  schedule_tick();
}

void SloMonitor::stop() {
  if (!running_) return;
  running_ = false;
  engine_->cancel(pending_);
  pending_ = sim::EventHandle{};
}

void SloMonitor::schedule_tick() {
  pending_ = engine_->schedule(period_, [this] {
    if (!running_) return;
    evaluate_now();
    schedule_tick();
  });
}

std::size_t SloMonitor::evaluate_now() {
  for (State& s : objectives_) evaluate(s);
  if (telemetry_ != nullptr) {
    if (evaluations_ == nullptr)
      evaluations_ = telemetry_->metrics().counter(
          "griphon_slo_evaluations_total", "SLO evaluation sweeps performed");
    evaluations_->inc();
  }
  return active_alerts();
}

void SloMonitor::evaluate(State& s) {
  const double v = s.objective.value ? s.objective.value() : std::nan("");
  if (std::isnan(v)) return;  // no data: leave both streaks untouched
  s.last_value = v;
  s.has_value = true;
  const bool ok = v <= s.objective.bound;
  Telemetry* t = telemetry_;
  const auto labels = [&s] { return Labels{{"objective", s.objective.name}}; };
  if (!ok) {
    s.good_streak = 0;
    ++s.bad_streak;
    if (t != nullptr) {
      if (s.violations == nullptr)
        s.violations = t->metrics().counter(
            "griphon_slo_violations_total",
            "Evaluations that measured the objective out of bound", labels());
      s.violations->inc();
    }
    if (!s.alerting && s.bad_streak >= s.objective.trip_after) {
      s.alerting = true;
      ++s.fired;
      if (t != nullptr) {
        if (s.alerts_fired == nullptr)
          s.alerts_fired = t->metrics().counter(
              "griphon_slo_alerts_fired_total",
              "Alerts fired after trip_after consecutive violations",
              labels());
        s.alerts_fired->inc();
        s.alert_active->set(1);
        std::ostringstream msg;
        msg << s.objective.name << " out of budget: " << std::fixed
            << std::setprecision(3) << v << " > " << s.objective.bound
            << " (" << s.objective.description << ")";
        t->event(Severity::kError, "slo", "slo-monitor", msg.str());
      }
    }
  } else {
    s.bad_streak = 0;
    ++s.good_streak;
    if (s.alerting && s.good_streak >= s.objective.clear_after) {
      s.alerting = false;
      if (t != nullptr) {
        s.alert_active->set(0);
        std::ostringstream msg;
        msg << s.objective.name << " back in budget: " << std::fixed
            << std::setprecision(3) << v << " <= " << s.objective.bound;
        t->event(Severity::kInfo, "slo", "slo-monitor", msg.str());
      }
    }
  }
}

std::vector<SloMonitor::StatusRow> SloMonitor::status() const {
  std::vector<StatusRow> out;
  out.reserve(objectives_.size());
  for (const State& s : objectives_) {
    StatusRow row;
    row.name = s.objective.name;
    row.description = s.objective.description;
    row.value = s.last_value;
    row.bound = s.objective.bound;
    row.alerting = s.alerting;
    row.fired_count = s.fired;
    out.push_back(std::move(row));
  }
  return out;
}

std::size_t SloMonitor::active_alerts() const noexcept {
  std::size_t n = 0;
  for (const State& s : objectives_)
    if (s.alerting) ++n;
  return n;
}

bool SloMonitor::alerting(const std::string& name) const {
  for (const State& s : objectives_)
    if (s.objective.name == name) return s.alerting;
  return false;
}

std::string SloMonitor::render() const {
  std::ostringstream os;
  os << "SLOs (" << active_alerts() << " alerting):\n";
  for (const State& s : objectives_) {
    os << "  [" << (s.alerting ? "ALERT" : "  ok ") << "] " << std::left
       << std::setw(24) << s.objective.name << std::right << " ";
    if (s.has_value)
      os << std::fixed << std::setprecision(3) << std::setw(10)
         << s.last_value;
    else
      os << std::setw(10) << "n/a";
    os << " / budget " << std::fixed << std::setprecision(3)
       << s.objective.bound;
    if (s.fired > 0) os << "  (fired " << s.fired << "x)";
    os << "\n";
  }
  return os.str();
}

// --- canonical objectives ---------------------------------------------------

namespace {

/// p95 of a duration histogram; NaN while it is absent or empty.
std::function<double()> histogram_p95(const MetricsRegistry& m,
                                      const char* name) {
  return [&m, h = CachedLookup<const Histogram*>(name)]()
             mutable {
    const Histogram* found = h(m);
    return found == nullptr || found->count() == 0 ? std::nan("")
                                                   : found->quantile(0.95);
  };
}

double value_of(const Counter* c) {
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double sum_of(const std::vector<const Counter*>& family) {
  double sum = 0;
  for (const Counter* c : family) sum += value_of(c);
  return sum;
}

/// bad / (good + bad); NaN while both are zero.
double share(double good, double bad) {
  const double total = good + bad;
  return total == 0 ? std::nan("") : bad / total;
}

}  // namespace

Objective setup_latency_objective(const MetricsRegistry& m,
                                  double budget_seconds) {
  Objective o;
  o.name = "setup_latency_p95";
  o.description = "connection setup p95 within the paper's budget";
  o.bound = budget_seconds;
  o.value = histogram_p95(m, "griphon_controller_setup_seconds");
  return o;
}

Objective restoration_time_objective(const MetricsRegistry& m,
                                     double budget_seconds) {
  Objective o;
  o.name = "restoration_time_p95";
  o.description = "restoration p95 within the paper's budget";
  o.bound = budget_seconds;
  o.value = histogram_p95(m, "griphon_controller_restore_seconds");
  return o;
}

Objective blocking_rate_objective(const MetricsRegistry& m, double ceiling) {
  Objective o;
  o.name = "blocking_rate";
  o.description = "share of setups refused or failed";
  o.bound = ceiling;
  o.value = [&m,
             ok = CachedLookup<const Counter*>(
                 "griphon_controller_setups_ok_total"),
             bad = CachedLookup<const Counter*>(
                 "griphon_controller_setups_failed_total")]() mutable {
    return share(value_of(ok(m)), value_of(bad(m)));
  };
  return o;
}

Objective bod_deadline_miss_objective(const MetricsRegistry& m,
                                      double ceiling) {
  Objective o;
  o.name = "bod_deadline_miss_rate";
  o.description = "share of bulk transfers missing their deadline";
  o.bound = ceiling;
  // BoD counters are per-customer series only; each transfer increments
  // exactly one series, so the family sum is the fleet total.
  o.value = [&m,
             met = CachedLookup<std::vector<const Counter*>>(
                 "griphon_bod_deadlines_met_total"),
             missed = CachedLookup<std::vector<const Counter*>>(
                 "griphon_bod_deadlines_missed_total")]() mutable {
    return share(sum_of(met(m)), sum_of(missed(m)));
  };
  return o;
}

Objective restoration_backlog_objective(const MetricsRegistry& m,
                                        double ceiling) {
  Objective o;
  o.name = "restoration_backlog";
  o.description = "failed restorations parked on retry within bound";
  o.bound = ceiling;
  o.value = [&m, g = CachedLookup<const Gauge*>(
                     "griphon_restoration_backlog_depth")]()
                mutable {
    const Gauge* found = g(m);
    return found == nullptr ? std::nan("") : found->value();
  };
  return o;
}

}  // namespace griphon::telemetry
