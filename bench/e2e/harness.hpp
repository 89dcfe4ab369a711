// Shared machinery of the end-to-end benchmark harness (griphon_e2e).
//
// The harness drives the program only through its public service calls
// and reports three kinds of numbers (Report::Kind):
//  * kSim   — simulated-clock service metrics and counts; exact for a given
//             seed, so every run of one seed (traced or not) must agree;
//  * kWall  — wall-clock throughput, set-up time and memory;
//  * kLayer — per-layer breakdown, produced only by a traced run.
// Percentiles are not computed here: sample sets go out raw and
// bench/e2e/run.py applies one percentile rule to all of them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "core/portal.hpp"
#include "core/rwa.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/graph.hpp"

namespace e2e {

using namespace griphon;
using WallClock = std::chrono::steady_clock;

enum class Size { kFull, kSmoke };

struct Options {
  std::string workload;
  std::uint64_t seed = 20110804;
  bool trace = false;
  Size size = Size::kFull;
};

/// Metrics of one workload run, serialized as one JSON object.
class Report {
 public:
  enum class Kind { kSim, kWall, kLayer };

  void scalar(const std::string& name, double value, const std::string& unit,
              Kind kind);
  /// A sample set; run.py turns it into `quantiles` (metric name -> q)
  /// plus `<n_name>`, the sample count.
  void samples(const std::string& name, std::vector<double> values,
               const std::string& unit, Kind kind,
               std::vector<std::pair<std::string, double>> quantiles,
               const std::string& n_name);
  void text(const std::string& key, const std::string& value);
  /// A correctness check; any failed check makes the run exit non-zero.
  void check(const std::string& name, bool ok, const std::string& detail = {});
  /// Error outcomes by normalized message, for diagnosis.
  void error(const std::string& message);

  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Scalar {
    double value;
    std::string unit;
    Kind kind;
  };
  struct Samples {
    std::vector<double> values;
    std::string unit;
    Kind kind;
    std::vector<std::pair<std::string, double>> quantiles;
    std::string n_name;
  };
  struct Check {
    bool ok;
    std::string detail;
  };
  std::map<std::string, Scalar> scalars_;
  std::map<std::string, Samples> samples_;
  std::map<std::string, std::string> texts_;
  std::map<std::string, Check> checks_;
  std::map<std::string, std::size_t> errors_;
};

/// Harness wall-clock spans around calls into the program's layers. Off in
/// timed runs (every call is one branch); in a traced run every span is
/// kept in memory and written out at exit as a Chrome trace.
class Spans {
 public:
  explicit Spans(bool on);

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// RAII span, nested under the innermost open one. `op` identifies the
  /// input record the work belongs to (0 = none).
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  /// Durations (µs) of every closed span, grouped by name.
  [[nodiscard]] std::map<std::string, std::vector<double>> durations_us() const;

  /// Chrome Trace Event JSON (B/E pairs on one lane, integer µs). Above
  /// 200k spans, whole ops are kept at a uniform stride so the file stays
  /// loadable; op-less spans are always kept.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t parent;  ///< index + 1; 0 = root
    std::uint64_t op;
  };
  std::size_t open(const char* name, std::uint64_t op);
  void close(std::size_t index);

  bool on_;
  WallClock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Traced-run shadow probes: read-only calls made at each input to time a
/// layer from outside. They never run in timed runs. Route planning goes
/// through harness-owned RwaEngines, so the controller's route cache never
/// sees a shadow call; the shared telemetry counters they bump are tallied
/// here and subtracted in report_layers().
class Probes {
 public:
  Probes(Spans& spans, core::NetworkModel& model,
         core::GriphonController& controller);

  /// Inventory snapshot plus the event-queue and EMS-queue depth gauges.
  void at_input(std::uint64_t op);
  /// Warm plan on a persistent engine and cold plan on a fresh one.
  void plans(std::uint64_t op, NodeId src, NodeId dst,
             const core::Exclusions& exclude);
  void cold_plan(std::uint64_t op, NodeId src, NodeId dst,
                 const core::Exclusions& exclude);
  /// The portal's quota check, which scans the customer's connections.
  void provisioned(std::uint64_t op, const core::CustomerPortal& portal);

  struct RwaCounts {
    double hits = 0;
    double misses = 0;
    double plans = 0;
    double failed = 0;
  };
  [[nodiscard]] const RwaCounts& shadow() const noexcept { return shadow_; }
  [[nodiscard]] std::size_t pending_max() const noexcept {
    return pending_max_;
  }
  [[nodiscard]] std::size_t ems_queue_max() const noexcept {
    return ems_queue_max_;
  }

 private:
  [[nodiscard]] RwaCounts rwa_counts() const;
  void plan_on(const core::RwaEngine& engine, const char* span,
               std::uint64_t op, NodeId src, NodeId dst,
               const core::Exclusions& exclude);

  Spans& spans_;
  core::NetworkModel& model_;
  core::GriphonController& controller_;
  core::RwaEngine warm_;
  RwaCounts shadow_;
  std::size_t pending_max_ = 0;
  std::size_t ems_queue_max_ = 0;
};

[[nodiscard]] double seconds_since(WallClock::time_point t0);

// --- plant ------------------------------------------------------------------

/// The 50-node backbone every workload runs on (fixed; not seed-dependent).
[[nodiscard]] topology::Graph backbone();
/// `count` distinct nodes by seeded shuffle.
[[nodiscard]] std::vector<NodeId> pick_nodes(const topology::Graph& graph,
                                             std::size_t count,
                                             std::uint64_t seed);

/// Run `build` (set-up: plant, controller, portals, inputs) several times
/// and keep the last result; `*setup_s` is the median build time. Set-up
/// takes milliseconds, so a single sample would be mostly noise.
template <typename Build>
auto build_timed(Build build, double* setup_s) -> decltype(build()) {
  constexpr int kBuilds = 7;
  std::vector<double> times;
  decltype(build()) world;
  for (int i = 0; i < kBuilds; ++i) {
    world = nullptr;  // tear the previous one down outside the timing
    const auto t0 = WallClock::now();
    world = build();
    times.push_back(seconds_since(t0));
  }
  std::sort(times.begin(), times.end());
  *setup_s = times[times.size() / 2];
  return world;
}

// --- end-of-run checks and metrics ------------------------------------------

/// The controller's device-state digest, folded to 64-bit FNV-1a hex.
void report_digest(const core::GriphonController& controller, Report& report);

/// Every connection record the controller holds, ids ascending. Records
/// are never erased, and each accepted request finishes setup exactly
/// once, so the scan stops after setups_ok + setups_failed records.
[[nodiscard]] std::vector<const core::Connection*> connection_records(
    const core::GriphonController& controller, Report& report);

/// Setup latency over successful setups, plus the no-transitional-state
/// check, from the connection records.
void report_connections(const std::vector<const core::Connection*>& records,
                        Report& report);

/// Post-drain reconciliation: resync until it finds zero leaks and zero
/// drift, at most four passes.
void resync_until_clean(sim::Engine& engine,
                        core::GriphonController& controller, Spans& spans,
                        Report& report);

/// Wall-clock metrics common to every workload.
void report_wall(double setup_s, double timed_s, std::size_t records,
                 Report& report);

/// Harness spans named `span` as the per-layer sample set `metric` (p50 and
/// p99), durations scaled from µs by `scale`.
void report_span_samples(
    const std::map<std::string, std::vector<double>>& durations_us,
    const char* span, const std::string& metric, const char* unit,
    double scale, Report& report);

/// Per-layer metrics every workload shares: harness spans, engine and
/// controller counters, EMS and RWA telemetry. Traced runs only.
void report_layers(const Spans& spans, const Probes& probes,
                   const sim::Engine& engine, core::NetworkModel& model,
                   const core::GriphonController& controller,
                   const telemetry::Telemetry& sink, std::size_t records,
                   Report& report);

/// Classify a failed request: capacity refusals are blocking, anything else
/// is an error.
[[nodiscard]] bool is_blocking(const Error& error);

// --- workloads --------------------------------------------------------------

/// churn, storm and reopt: customers buying 10G circuits through portals.
[[nodiscard]] Report run_circuits(const Options& options);
/// bod: deadline-driven bulk transfers through the TransferScheduler.
[[nodiscard]] Report run_bod(const Options& options);

}  // namespace e2e
