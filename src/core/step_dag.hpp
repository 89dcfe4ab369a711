// Dependency-DAG execution planning for EMS command trains.
//
// A Step is one EMS command (plus its rollback command, if any) with
// explicit dependency edges on earlier steps. The builders in the
// controller emit the real ordering constraints — an NTE port must be up
// before the FXC cross-connect that steers it, a transponder must be tuned
// before the ROADM add/drop that references it, a regenerator engages only
// after both of its add/drops — and everything the edges do not relate is
// free to run concurrently. StepDag materializes those edges (adding
// implicit per-element serialization so two commands to one device never
// race) and DagScheduler hands out ready steps under a bounded per-domain
// in-flight window. The controller drives the actual issuing; everything
// here is pure bookkeeping and therefore unit-testable without a network.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "proto/messages.hpp"

namespace griphon::proto {
class RequestClient;
}  // namespace griphon::proto

namespace griphon::core {

/// One EMS command in a train, with its rollback and its predecessors.
struct Step {
  proto::RequestClient* client = nullptr;
  proto::Message forward;              ///< command to run
  std::optional<proto::Message> undo;  ///< rollback command, if any
  /// Indices (into the same StepList) of steps that must complete before
  /// this one may be issued. Empty = runnable immediately.
  std::vector<std::size_t> deps{};
};
using StepList = std::vector<Step>;

/// The dependency graph of one StepList: explicit builder edges merged
/// with implicit same-element edges (each command depends on the previous
/// command addressed to the same element, preserving list order per
/// device). Indices are positions in the originating StepList.
class StepDag {
 public:
  explicit StepDag(const StepList& steps);
  /// The strict chain over `n` steps: step i depends only on step i-1.
  /// Implies every builder and same-element edge, so running it is the
  /// one-dialogue-at-a-time sequential train.
  [[nodiscard]] static StepDag chain(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return deps_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& deps_of(
      std::size_t i) const {
    return deps_.at(i);
  }
  [[nodiscard]] const std::vector<std::size_t>& dependents_of(
      std::size_t i) const {
    return dependents_.at(i);
  }

 private:
  StepDag() = default;

  std::vector<std::vector<std::size_t>> deps_;
  std::vector<std::vector<std::size_t>> dependents_;
};

/// Rollback command list for the succeeded steps of a train, in reverse
/// completion order and carrying reverse dependency edges: if forward step
/// j depended on step i, then i's undo depends on j's undo (transitively
/// across succeeded steps that have no undo of their own). Executing this
/// list under any executor that honors deps reproduces the strict reverse
/// teardown a sequential rollback gives.
[[nodiscard]] StepList build_undo_steps(
    const StepList& steps, const std::vector<std::size_t>& succeeded);

/// Ready-set scheduler over a StepDag with a bounded in-flight window per
/// EMS domain. Deterministic: ready steps are handed out lowest-index
/// first within each domain, domains in lexicographic order.
class DagScheduler {
 public:
  DagScheduler(const StepDag* dag, std::vector<std::string> domains,
               std::size_t domain_window);

  /// Claim the next issuable step (respecting windows); marks it in
  /// flight. nullopt when nothing is currently issuable.
  [[nodiscard]] std::optional<std::size_t> acquire();

  /// Remove every currently-ready step of `domain` matching `pred` and
  /// return them (lowest index first). They ride an already-acquired
  /// window slot (command batching); callers must still release() each.
  [[nodiscard]] std::vector<std::size_t> drain_ready(
      const std::string& domain,
      const std::function<bool(std::size_t)>& pred);

  /// Step `i` completed: unblock its dependents.
  void release(std::size_t i);
  /// The window slot `i` was issued under is free again.
  void slot_done(std::size_t i);
  /// Stop handing out new steps (first failure in a strict run). Already
  /// in-flight steps drain normally.
  void abort();

  [[nodiscard]] bool aborted() const noexcept { return aborted_; }
  /// No slots in flight.
  [[nodiscard]] bool idle() const noexcept { return in_flight_total_ == 0; }
  /// Nothing in flight and nothing will become issuable: the run is over.
  [[nodiscard]] bool finished() const;
  /// Steps that can never run because the graph is cyclic (defensive; a
  /// builder bug). finished() turns true so the run ends instead of
  /// hanging, and the controller surfaces this count as an error.
  [[nodiscard]] std::size_t stuck() const;

 private:
  const StepDag* dag_;
  std::vector<std::string> domains_;
  std::size_t window_;
  std::vector<std::size_t> indegree_;
  std::vector<bool> issued_;
  std::vector<bool> completed_;
  std::map<std::string, std::deque<std::size_t>> ready_;
  std::map<std::string, std::size_t> in_flight_;
  std::size_t in_flight_total_ = 0;
  bool aborted_ = false;
};

/// Execution record of one DAG run, kept for the shell's `dag` command.
struct DagStepRecord {
  std::string name;    ///< span label, e.g. "ot.tune"
  std::string domain;  ///< e.g. "roadm-ems"
  std::vector<std::size_t> deps;  ///< merged (explicit + per-element) edges
  double start_s = -1.0;  ///< seconds since run start; -1 = never issued
  double end_s = -1.0;
  bool ok = false;
  bool batched = false;  ///< coalesced into a shared batch dialogue
  bool critical = false; ///< on the longest dependency chain
};

struct StepDagReport {
  double started_at_s = 0.0;  ///< absolute sim time of the run start
  double total_s = 0.0;       ///< run duration (issue of first to last done)
  std::vector<DagStepRecord> steps;
};

/// Mark report.steps[i].critical along the longest finish-time chain
/// (each step's predecessor is the dependency that completed last).
void mark_critical_path(StepDagReport& report);

/// ASCII rendering of the DAG run: one row per step with timing bars,
/// dependency lists and a '*' on the critical path.
[[nodiscard]] std::string render_dag(const StepDagReport& report);

}  // namespace griphon::core
