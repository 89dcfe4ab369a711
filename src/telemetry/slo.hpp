// Declarative service-level objectives with hysteresis.
//
// An Objective is "this measured value must stay within bound": setup
// latency p95 under the paper's ~60 s budget, restoration under ~100 s,
// blocking rate under a ceiling, BoD deadline-miss rate under a ceiling.
// The monitor evaluates every objective on a sim-clock cadence (typically
// the sampler cadence) and applies hysteresis: an alert fires only after
// `trip_after` consecutive violating evaluations and clears only after
// `clear_after` consecutive healthy ones — a single noisy window neither
// pages nor silences.
//
// Firing/clearing writes an EventLog entry (category "slo") and updates
// griphon_slo_* metrics, so alerts appear in the trace export, the shell
// dashboard, and the Prometheus dump alike.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace griphon::telemetry {

class Counter;
class Gauge;
class MetricsRegistry;
class Telemetry;

struct Objective {
  std::string name;         ///< e.g. "setup_latency_p95"
  std::string description;  ///< shown on the dashboard and in alerts
  /// Current measurement. Return NaN for "no data yet" — such an
  /// evaluation leaves both hysteresis streaks untouched.
  std::function<double()> value;
  double bound = 0;     ///< objective holds while value <= bound
  int trip_after = 3;   ///< consecutive violations before the alert fires
  int clear_after = 3;  ///< consecutive healthy evals before it clears
};

class SloMonitor {
 public:
  /// `telemetry` receives alert events + griphon_slo_* metrics; it may be
  /// null (the monitor still tracks state, e.g. in unit tests).
  explicit SloMonitor(sim::Engine* engine, Telemetry* telemetry = nullptr)
      : engine_(engine), telemetry_(telemetry) {}

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;
  ~SloMonitor() { stop(); }

  void add_objective(Objective objective);
  [[nodiscard]] std::size_t objective_count() const noexcept {
    return objectives_.size();
  }

  /// Begin periodic evaluation every `period` (no immediate evaluation:
  /// the first window should contain data).
  void start(SimTime period);
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Evaluate every objective once, now. Returns the number of active
  /// alerts after evaluation.
  std::size_t evaluate_now();

  struct StatusRow {
    std::string name;
    std::string description;
    double value = std::nan("");  ///< last measured (NaN = no data yet)
    double bound = 0;
    bool alerting = false;
    std::uint64_t fired_count = 0;  ///< times this alert has fired
  };
  [[nodiscard]] std::vector<StatusRow> status() const;
  [[nodiscard]] std::size_t active_alerts() const noexcept;
  [[nodiscard]] bool alerting(const std::string& name) const;

  /// Dashboard block: one line per objective, OK/ALERT + value vs bound.
  [[nodiscard]] std::string render() const;

 private:
  struct State {
    Objective objective;
    double last_value = std::nan("");
    bool has_value = false;
    int bad_streak = 0;
    int good_streak = 0;
    bool alerting = false;
    std::uint64_t fired = 0;
    // griphon_slo_* series of this objective (null without telemetry);
    // the two counters register on their first increment.
    Gauge* alert_active = nullptr;
    Counter* violations = nullptr;
    Counter* alerts_fired = nullptr;
  };

  void schedule_tick();
  void evaluate(State& s);

  sim::Engine* engine_;
  Telemetry* telemetry_;
  Counter* evaluations_ = nullptr;  ///< registered on the first sweep
  std::vector<State> objectives_;
  bool running_ = false;
  SimTime period_{};
  sim::EventHandle pending_{};
};

// --- canonical GRIPhoN objectives ------------------------------------------
// Helpers wiring the paper's operational budgets to the metric families
// the layers already export. They find metrics by family name only, so
// the telemetry layer stays free of upward dependencies, and keep what
// they found (CachedLookup) so a tick looks up nothing by name.

/// p95 of griphon_controller_setup_seconds <= budget (paper: ~60 s).
[[nodiscard]] Objective setup_latency_objective(const MetricsRegistry& m,
                                                double budget_seconds);
/// p95 of griphon_controller_restore_seconds <= budget (paper: ~100 s).
[[nodiscard]] Objective restoration_time_objective(const MetricsRegistry& m,
                                                   double budget_seconds);
/// setups_failed / (setups_ok + setups_failed) <= ceiling.
[[nodiscard]] Objective blocking_rate_objective(const MetricsRegistry& m,
                                                double ceiling);
/// deadlines_missed / (met + missed) <= ceiling, over BoD transfers.
[[nodiscard]] Objective bod_deadline_miss_objective(const MetricsRegistry& m,
                                                    double ceiling);
/// griphon_restoration_backlog_depth <= ceiling — connections that failed
/// restoration and are parked on retry timers. A persistently deep
/// backlog is the degraded-mode signal of a restoration storm that the
/// plant cannot absorb. Reads NaN until the controller first publishes
/// the gauge (monitor streaks stay frozen on an idle plane).
[[nodiscard]] Objective restoration_backlog_objective(
    const MetricsRegistry& m, double ceiling);

}  // namespace griphon::telemetry
