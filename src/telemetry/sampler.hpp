// Sim-clock gauge sampling into bounded time series.
//
// A GaugeSampler owns a set of named probes (std::function<double()>)
// and, once started, snapshots every probe on a fixed sim-time cadence
// into a per-probe TimeSeries ring. The rings are bounded (old points
// fall off; rollups stay cumulative over the whole run), so a week-long
// soak costs the same memory as a minute.
//
// Probes are registered by the layer that owns the state — pool
// occupancy and queue depths by core (see core::install_standard_probes),
// calendar occupancy by bod — keeping the telemetry layer free of
// upward dependencies. Export is JSON (points + rollups; the
// SERIES_*.json files consumed by tools/bench_diff.py --series) and CSV
// (one row per tick, one column per probe — rings share the cadence so
// rows stay aligned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace griphon::telemetry {

class Counter;
class Telemetry;

/// Bounded ring of (sim time, value) points with cumulative rollups.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity = 512)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Point {
    SimTime at{};
    double value = 0;
  };

  struct Rollup {
    std::uint64_t count = 0;  ///< samples ever pushed (not just retained)
    double min = 0;
    double max = 0;
    double mean = 0;
    double last = 0;
  };

  void push(SimTime at, double value);

  [[nodiscard]] const std::deque<Point>& points() const noexcept {
    return points_;
  }
  /// Cumulative over every sample ever pushed, ring eviction or not.
  [[nodiscard]] Rollup rollup() const noexcept;
  /// Retained values with `from <= at <= until`, oldest first.
  [[nodiscard]] std::vector<double> window(SimTime from, SimTime until) const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Points evicted by the ring bound.
  [[nodiscard]] std::uint64_t dropped_count() const noexcept {
    return dropped_;
  }

  /// ASCII sparkline of the newest `width` retained points, scaled to the
  /// retained min..max (flat series render as all-mid).
  [[nodiscard]] std::string spark(std::size_t width = 60) const;

 private:
  std::deque<Point> points_;
  std::size_t capacity_;
  std::uint64_t count_ = 0;
  std::uint64_t dropped_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
  double last_ = 0;
};

class GaugeSampler {
 public:
  /// `telemetry` (optional) receives griphon_sampler_* bookkeeping
  /// metrics; the sampler itself is usable without it.
  explicit GaugeSampler(sim::Engine* engine, Telemetry* telemetry = nullptr,
                        std::size_t ring_capacity = 512);

  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;
  ~GaugeSampler();

  /// Register a probe. Names must be unique; re-registering a name
  /// replaces the probe function but keeps the series.
  void add_probe(std::string name, std::string unit,
                 std::function<double()> probe);

  /// Begin periodic sampling every `period` (also samples immediately).
  void start(SimTime period);
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] SimTime period() const noexcept { return period_; }

  /// Snapshot every probe once at the current sim time.
  void sample_now();

  [[nodiscard]] std::size_t probe_count() const noexcept {
    return probes_.size();
  }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const TimeSeries* series(const std::string& name) const;
  [[nodiscard]] const std::string* unit_of(const std::string& name) const;
  [[nodiscard]] std::uint64_t tick_count() const noexcept { return ticks_; }

  /// {"period_s":..,"ticks":..,"series":[{name,unit,rollup,points},...]}
  [[nodiscard]] std::string to_json() const;
  /// Wide CSV: header "t_seconds,<probe>..." then one row per tick.
  [[nodiscard]] std::string to_csv() const;
  /// Rollups only (no points): the SERIES_*.json summary format that
  /// tools/bench_diff.py --series diffs between baselines.
  [[nodiscard]] std::string rollups_json() const;

 private:
  struct Probe {
    std::string name;
    std::string unit;
    std::function<double()> fn;
    TimeSeries series;
  };

  void schedule_tick();

  sim::Engine* engine_;
  Telemetry* telemetry_;
  Counter* ticks_total_ = nullptr;  ///< registered on the first tick
  std::size_t ring_capacity_;
  std::vector<Probe> probes_;  // registration order (stable export order)
  bool running_ = false;
  SimTime period_{};
  sim::EventHandle pending_{};
  std::uint64_t ticks_ = 0;
};

}  // namespace griphon::telemetry
