#include "core/failure_manager.hpp"

#include "telemetry/telemetry.hpp"

namespace griphon::core {

namespace {

/// Alarm correlation window.
constexpr SimTime kHolddown = milliseconds(2500);

}  // namespace

void FailureManager::ingest(const Alarm& alarm) {
  ++ingested_;
  if (telemetry_ != nullptr)
    metrics_.alarms_ingested.in(telemetry_->metrics()).inc();
  if (!alarm.link) return;  // only line-side alarms localize fiber faults
  switch (alarm.type) {
    case AlarmType::kLos:
    case AlarmType::kLof:
      // First alarm of a cut closes the plant's pending detect note:
      // the `detect` span runs fiber-cut -> first alarm seen here.
      if (telemetry_ != nullptr) telemetry_->close_detect(alarm.link->value());
      pending_los_[*alarm.link].insert(alarm.source);
      if (!failure_window_open_) {
        failure_window_open_ = true;
        failure_window_opened_at_ = engine_->now();
        engine_->schedule(kHolddown, [this]() {
          failure_window_open_ = false;
          correlate_failures();
        });
      }
      break;
    case AlarmType::kClear:
      pending_clear_[*alarm.link].insert(alarm.source);
      if (!repair_window_open_) {
        repair_window_open_ = true;
        engine_->schedule(kHolddown, [this]() {
          repair_window_open_ = false;
          correlate_repairs();
        });
      }
      break;
    default:
      break;
  }
}

FailureManager::FailureEvent FailureManager::classify(
    std::vector<LinkId> links) const {
  FailureEvent event;
  event.links = std::move(links);
  // Group the localized links by shared risk: two links are conduit-mates
  // when the resolver puts them in each other's sibling sets. A cut link
  // whose group lost >= 2 members in this same window is the SRLG
  // signature of a conduit cut.
  std::set<LinkId> unassigned(event.links.begin(), event.links.end());
  bool correlated = false;
  while (!unassigned.empty()) {
    const LinkId seed = *unassigned.begin();
    unassigned.erase(unassigned.begin());
    ++event.conduits;
    if (!srlg_resolver_) continue;
    std::size_t group_size = 1;
    for (const LinkId sibling : srlg_resolver_(seed)) {
      if (sibling == seed) continue;
      if (unassigned.erase(sibling) != 0) ++group_size;
    }
    if (group_size >= 2) correlated = true;
  }
  // A window localizing at least this many links is a storm even without
  // SRLG confirmation (a wide uncorrelated burst stresses the restoration
  // pipeline exactly like a conduit cut does).
  constexpr std::size_t kStormLinkThreshold = 4;
  event.storm =
      correlated || event.links.size() >= kStormLinkThreshold;
  return event;
}

void FailureManager::correlate_failures() {
  std::vector<LinkId> localized;
  for (const auto& [link, sources] : pending_los_) {
    // Two independent reporting elements confirm a cut; a single reporter
    // still localizes (the far degree may simply be unequipped), but only
    // links not already believed failed produce a new event.
    if (believed_failed_.contains(link)) continue;
    believed_failed_.insert(link);
    localized.push_back(link);
  }
  pending_los_.clear();
  if (localized.empty()) return;
  FailureEvent event = classify(std::move(localized));
  if (event.storm) ++storms_seen_;
  if (telemetry_ != nullptr) {
    // Localize = the correlation window: first alarm -> localization fire.
    telemetry_->span_record(
        "localize", "failure-manager", 0, 0, failure_window_opened_at_,
        engine_->now(), true,
        std::to_string(event.links.size()) + " link(s), " +
            std::to_string(event.conduits) + " conduit(s)" +
            (event.storm ? ", storm" : ""));
    auto& m = telemetry_->metrics();
    metrics_.links_localized.in(m).inc(event.links.size());
    metrics_.localize_seconds.in(m).observe(
        to_seconds(engine_->now() - failure_window_opened_at_));
    if (event.storm) metrics_.storms.in(m).inc();
  }
  if (failure_handler_) failure_handler_(event);
}

void FailureManager::correlate_repairs() {
  std::vector<LinkId> repaired;
  for (const auto& [link, sources] : pending_clear_) {
    if (!believed_failed_.contains(link)) continue;
    believed_failed_.erase(link);
    repaired.push_back(link);
  }
  pending_clear_.clear();
  if (telemetry_ != nullptr && !repaired.empty())
    metrics_.links_repaired.in(telemetry_->metrics()).inc(repaired.size());
  if (!repaired.empty() && repair_handler_) repair_handler_(repaired);
}

}  // namespace griphon::core
