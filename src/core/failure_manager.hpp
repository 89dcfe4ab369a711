// Failure detection and localization.
//
// The controller receives raw per-channel alarms from the EMSs (a single
// fiber cut raises one LOS per configured channel per end ROADM). The
// failure manager holds alarms for a correlation window, then localizes:
// a link reported by ROADMs on *both* ends is a confirmed fiber cut; a
// link reported from one end only is still suspected (the far ROADM may
// carry nothing on that degree). CLEAR alarms are correlated the same way
// into repair notifications.
//
// Correlated storms: a backhoe severing one conduit takes down every SRLG
// sibling fiber at once, so the alarms of all siblings land inside the
// same holddown window. With an SRLG resolver attached the manager groups
// the localized links by shared-risk group and classifies the event — one
// FailureEvent per window, flagged as a storm when a conduit lost more
// than one fiber or the window collapsed a wide multi-link burst.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/alarm.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"

namespace griphon::telemetry {
class Telemetry;
}  // namespace griphon::telemetry

namespace griphon::core {

class FailureManager {
 public:
  /// One localized failure event: the root-cause links of one holddown
  /// window, plus the SRLG view of them. `conduits` counts distinct
  /// shared-risk groups among the links (links without a group count as a
  /// conduit of their own); `storm` is set when the event is correlated —
  /// an SRLG group lost two or more links at once, or the window
  /// collapsed a wide burst of links (four or more).
  struct FailureEvent {
    std::vector<LinkId> links;
    std::size_t conduits = 0;
    bool storm = false;
  };

  /// Called once per localized event with the root-cause links.
  using FailureHandler = std::function<void(const FailureEvent&)>;
  using RepairHandler = std::function<void(const std::vector<LinkId>&)>;
  /// Maps a link to every link sharing its SRLG (including itself);
  /// typically Graph::srlg_siblings. Unset = every link is its own risk
  /// group (no storm classification by conduit).
  using SrlgResolver = std::function<std::vector<LinkId>(LinkId)>;

  explicit FailureManager(sim::Engine* engine) : engine_(engine) {}

  void on_failure(FailureHandler handler) {
    failure_handler_ = std::move(handler);
  }
  void on_repair(RepairHandler handler) {
    repair_handler_ = std::move(handler);
  }
  void set_srlg_resolver(SrlgResolver resolver) {
    srlg_resolver_ = std::move(resolver);
  }

  /// Feed a raw alarm (from any EMS event stream).
  void ingest(const Alarm& alarm);

  /// Attach/detach a telemetry sink (idempotent; the controller forwards
  /// the model's sink before each ingest). Enables the detect/localize
  /// spans and griphon_failure_* metrics. Null = fast path.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

  [[nodiscard]] std::size_t alarms_ingested() const noexcept {
    return ingested_;
  }
  /// Links this manager currently believes are down.
  [[nodiscard]] const std::set<LinkId>& believed_failed() const noexcept {
    return believed_failed_;
  }
  /// Correlated storm events seen since construction.
  [[nodiscard]] std::size_t storms_seen() const noexcept {
    return storms_seen_;
  }

 private:
  void correlate_failures();
  void correlate_repairs();
  /// Group `links` by SRLG and classify the event (see FailureEvent).
  [[nodiscard]] FailureEvent classify(std::vector<LinkId> links) const;

  sim::Engine* engine_;
  FailureHandler failure_handler_;
  RepairHandler repair_handler_;
  SrlgResolver srlg_resolver_;

  /// link -> reporting sources, for the window in progress.
  std::map<LinkId, std::set<std::string>> pending_los_;
  std::map<LinkId, std::set<std::string>> pending_clear_;
  bool failure_window_open_ = false;
  bool repair_window_open_ = false;
  SimTime failure_window_opened_at_{};
  std::set<LinkId> believed_failed_;
  std::size_t ingested_ = 0;
  std::size_t storms_seen_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  /// Metric handles, registered on first use: an armed ingest looks up
  /// nothing by name.
  struct Metrics {
    telemetry::CachedCounter alarms_ingested{
        "griphon_failure_alarms_ingested_total",
        "Raw alarms fed to the failure manager"};
    telemetry::CachedCounter links_localized{
        "griphon_failure_links_localized_total",
        "Fiber faults localized by alarm correlation"};
    telemetry::CachedHistogram localize_seconds{
        "griphon_failure_localize_seconds",
        "First alarm to localized root cause"};
    telemetry::CachedCounter storms{
        "griphon_failure_storms_total",
        "Correlated failure storms (SRLG-sibling or wide bursts)"};
    telemetry::CachedCounter links_repaired{
        "griphon_failure_links_repaired_total",
        "Repairs confirmed by CLEAR correlation"};
  };
  Metrics metrics_;
};

}  // namespace griphon::core
