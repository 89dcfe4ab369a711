#include "reopt/executor.hpp"

#include <unordered_map>
#include <utility>

#include "core/network_model.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::reopt {

namespace {

/// Highest channel present, or kNoChannel. Cycle-break bridge channels
/// live at the top of the spectrum, away from the compaction target zone.
dwdm::ChannelIndex highest(const dwdm::ChannelSet& set) {
  dwdm::ChannelIndex best = dwdm::kNoChannel;
  set.for_each([&best](dwdm::ChannelIndex ch) { best = ch; });
  return best;
}

}  // namespace

MigrationExecutor::MigrationExecutor(sim::Engine* engine,
                                     core::GriphonController* controller,
                                     Params params)
    : engine_(engine), controller_(controller), params_(params) {}

void MigrationExecutor::run(MigrationPlan plan, DoneCallback done) {
  if (campaign_ != nullptr) {
    CampaignReport busy;
    busy.aborted = true;
    busy.abort_reason = "a migration campaign is already running";
    engine_->schedule(SimTime{},
                      [done = std::move(done), busy]() { done(busy); });
    return;
  }
  campaign_ = std::make_unique<Campaign>();
  Campaign& c = *campaign_;
  c.done = std::move(done);
  c.start_topology_version = controller_->model().topology_version();
  if (telemetry::Telemetry* t = controller_->model().telemetry())
    c.span = t->span_start("reopt_campaign", "reopt");

  c.nodes.reserve(plan.moves.size());
  for (Move& move : plan.moves) {
    Node node;
    node.move = std::move(move);
    const core::Connection* conn = controller_->find_connection(node.move.id);
    if (conn != nullptr && conn->state == core::ConnectionState::kActive) {
      node.current = conn->plan;
    } else {
      node.phase = Phase::kDone;
      node.freed = true;  // no cells captured, nothing to release
      node.outcome.result = MoveResult::kSkipped;
      node.outcome.detail = "connection not active at campaign start";
    }
    node.outcome.id = node.move.id;
    c.nodes.push_back(std::move(node));
  }
  c.report.moves_planned = c.nodes.size();

  // Dependency edges off current occupancy: node A waits on node B when
  // one of A's target (link, channel) cells is lit by B's current plan.
  std::unordered_map<std::uint64_t, std::unordered_map<int, std::size_t>>
      cell_owner;  // link -> channel -> node index
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    const Node& n = c.nodes[i];
    if (n.phase == Phase::kDone) continue;
    for (const core::SegmentPlan& seg : n.current.segments)
      for (std::size_t k = seg.first_link; k <= seg.last_link; ++k)
        cell_owner[n.current.path.links[k].value()][seg.channel] = i;
  }
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    Node& n = c.nodes[i];
    if (n.phase == Phase::kDone) continue;
    std::set<std::size_t> deps;
    for (const core::SegmentPlan& seg : n.move.target.segments) {
      for (std::size_t k = seg.first_link; k <= seg.last_link; ++k) {
        const auto by_link =
            cell_owner.find(n.move.target.path.links[k].value());
        if (by_link == cell_owner.end()) continue;
        const auto owner = by_link->second.find(seg.channel);
        if (owner != by_link->second.end() && owner->second != i)
          deps.insert(owner->second);
      }
    }
    n.deps_remaining = deps.size();
    for (const std::size_t d : deps) c.nodes[d].dependents.push_back(i);
  }
  for (const Node& n : c.nodes)
    if (n.phase != Phase::kDone) ++c.open;
  for (const Node& n : c.nodes) {
    if (n.phase == Phase::kDone) ++c.report.moves_skipped;
  }
  schedule_pump(SimTime{});
}

void MigrationExecutor::schedule_pump(SimTime delay) {
  if (campaign_ == nullptr || campaign_->pump_scheduled) return;
  campaign_->pump_scheduled = true;
  engine_->schedule(delay, [this]() { pump(); });
}

void MigrationExecutor::pump() {
  if (campaign_ == nullptr) return;
  Campaign& c = *campaign_;
  c.pump_scheduled = false;
  if (c.open == 0) {
    if (c.in_flight == 0) finish();
    return;
  }
  if (!c.report.aborted) {
    std::string why;
    if (should_abort(&why)) {
      c.report.aborted = true;
      c.report.abort_reason = std::move(why);
      if (telemetry::Telemetry* t = controller_->model().telemetry())
        t->event(telemetry::Severity::kWarn, "reopt", "reopt",
                 "campaign aborted: " + c.report.abort_reason);
    }
  }
  if (c.report.aborted) {
    // Drain: nothing new launches, pending moves resolve as skipped, and
    // the report fires once the in-flight rolls land.
    for (std::size_t i = 0; i < c.nodes.size(); ++i) {
      if (c.nodes[i].phase == Phase::kWaiting ||
          c.nodes[i].phase == Phase::kWaitingFinal) {
        mark_freed(i);
        mark_done(i, MoveResult::kSkipped,
                  "campaign aborted: " + c.report.abort_reason);
      }
    }
    if (c.in_flight == 0) finish();
    return;
  }
  if (c.in_flight >= params_.max_concurrent_rolls) return;
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    Node& n = c.nodes[i];
    if ((n.phase != Phase::kWaiting && n.phase != Phase::kWaitingFinal) ||
        n.deps_remaining != 0)
      continue;
    const bool launched = launch(i, n.move.target, /*scratch_hop=*/false);
    // One launch per pump keeps launches paced even when several moves
    // are ready; a refused launch (skip) costs no pacing delay.
    schedule_pump(launched ? params_.launch_spacing : SimTime{});
    return;
  }
  // Nothing ready. In-flight rolls will re-pump; a standstill with moves
  // still pending is a dependency cycle.
  if (c.in_flight == 0 && try_break_cycle()) schedule_pump(SimTime{});
}

bool MigrationExecutor::should_abort(std::string* reason) const {
  if (controller_->model().topology_version() !=
      campaign_->start_topology_version) {
    *reason = "topology changed under the campaign (fiber cut or repair)";
    return true;
  }
  // Every EMS domain's circuit breaker can veto a campaign.
  for (const ems::EmsServer* ems : controller_->model().ems_servers()) {
    if (controller_->ems_health().state(ems->name()) ==
        core::EmsHealthTracker::BreakerState::kOpen) {
      *reason = "EMS circuit breaker open: " + ems->name();
      return true;
    }
  }
  return false;
}

bool MigrationExecutor::resolve_devices(core::WavelengthPlan* plan,
                                        DataRate rate,
                                        const core::Inventory::Snapshot& snap,
                                        std::string* why) const {
  // The bridge lights both paths at once, so the roll needs a *second*
  // set of endpoint optics; the in-service devices are busy in `snap` and
  // are therefore never picked here.
  const auto src_ot = snap.find_free_ot(plan->path.nodes.front(), rate);
  if (!src_ot) {
    *why = "no spare transponder at source";
    return false;
  }
  const auto dst_ot = snap.find_free_ot(plan->path.nodes.back(), rate);
  if (!dst_ot) {
    *why = "no spare transponder at destination";
    return false;
  }
  plan->src_ot = *src_ot;
  plan->dst_ot = *dst_ot;
  plan->regens.clear();
  std::set<RegenId> used;
  for (std::size_t s = 0; s + 1 < plan->segments.size(); ++s) {
    const NodeId boundary = plan->path.nodes[plan->segments[s].last_link + 1];
    const auto regen = snap.find_free_regen(boundary, rate, used);
    if (!regen) {
      *why = "no spare regenerator at segment boundary";
      return false;
    }
    used.insert(*regen);
    plan->regens.push_back(*regen);
  }
  return true;
}

bool MigrationExecutor::launch(std::size_t i,
                               const core::WavelengthPlan& target,
                               bool scratch_hop) {
  Campaign& c = *campaign_;
  Node& n = c.nodes[i];
  const core::Connection* conn = controller_->find_connection(n.move.id);
  if (conn == nullptr || conn->state != core::ConnectionState::kActive) {
    mark_freed(i);
    mark_done(i, MoveResult::kSkipped, "connection no longer active");
    return false;
  }
  // Fresh-snapshot verification: the plan was computed against an older
  // view; if anything grabbed the target cells since, skip — the
  // connection stays where it is, which is always safe.
  const auto snap = controller_->inventory().snapshot();
  for (const core::SegmentPlan& seg : target.segments) {
    for (std::size_t k = seg.first_link; k <= seg.last_link; ++k) {
      if (!snap->available_on_link(target.path.links[k])
               .contains(seg.channel)) {
        mark_freed(i);
        mark_done(i, MoveResult::kSkipped, "target cells no longer free");
        return false;
      }
    }
  }
  core::WavelengthPlan plan = target;
  std::string why;
  if (!resolve_devices(&plan, conn->rate, *snap, &why)) {
    mark_freed(i);
    mark_done(i, MoveResult::kSkipped, why);
    return false;
  }
  n.phase = scratch_hop ? Phase::kScratchInFlight : Phase::kInFlight;
  if (n.outcome.launched_at == SimTime{}) n.outcome.launched_at = engine_->now();
  ++c.in_flight;
  controller_->roll_to(n.move.id, plan,
                       [this, i, scratch_hop, plan](Status status) {
                         on_roll_done(i, scratch_hop, status);
                         if (status.ok() && scratch_hop &&
                             campaign_ != nullptr)
                           campaign_->nodes[i].current = plan;
                       });
  return true;
}

void MigrationExecutor::on_roll_done(std::size_t i, bool scratch_hop,
                                     const Status& status) {
  if (campaign_ == nullptr) return;
  Campaign& c = *campaign_;
  --c.in_flight;
  Node& n = c.nodes[i];
  if (status.ok()) {
    ++c.report.rolls_ok;
    mark_freed(i);  // the old cells are genuinely free now
    if (scratch_hop) {
      n.phase = Phase::kWaitingFinal;
      n.outcome.via_scratch = true;
    } else {
      mark_done(i, MoveResult::kRolled, {});
    }
  } else {
    ++c.report.rolls_failed;
    // bridge-and-roll rolled the connection back onto its old path, so
    // its cells are NOT free — but dependents re-verify against a fresh
    // snapshot at launch, so releasing them here cannot mis-roll anyone;
    // it only lets the campaign drain instead of deadlocking.
    mark_freed(i);
    mark_done(i, MoveResult::kFailed, status.error().message());
  }
  schedule_pump(SimTime{});
}

void MigrationExecutor::mark_freed(std::size_t i) {
  Campaign& c = *campaign_;
  Node& n = c.nodes[i];
  if (n.freed) return;
  n.freed = true;
  for (const std::size_t d : n.dependents) {
    if (c.nodes[d].deps_remaining > 0) --c.nodes[d].deps_remaining;
  }
}

void MigrationExecutor::mark_done(std::size_t i, MoveResult result,
                                  std::string detail) {
  Campaign& c = *campaign_;
  Node& n = c.nodes[i];
  if (n.phase == Phase::kDone) return;
  n.phase = Phase::kDone;
  n.outcome.result = result;
  n.outcome.detail = std::move(detail);
  n.outcome.finished_at = engine_->now();
  if (c.open > 0) --c.open;
  switch (result) {
    case MoveResult::kRolled:
      ++c.report.moves_rolled;
      break;
    case MoveResult::kSkipped:
      ++c.report.moves_skipped;
      break;
    case MoveResult::kFailed:
      ++c.report.moves_failed;
      break;
  }
}

bool MigrationExecutor::try_break_cycle() {
  Campaign& c = *campaign_;
  std::size_t pick = c.nodes.size();
  for (std::size_t i = 0; i < c.nodes.size(); ++i) {
    if (c.nodes[i].phase == Phase::kWaiting) {
      pick = i;
      break;
    }
  }
  if (pick == c.nodes.size()) return false;
  Node& n = c.nodes[pick];
  // Bridge channel per segment: free right now, not the target cell of
  // any unfinished move (including this one's own), as high in the
  // spectrum as possible so the compaction zone stays clear.
  const std::size_t channels = controller_->model().grid().count();
  const auto snap = controller_->inventory().snapshot();
  std::unordered_map<std::uint64_t, dwdm::ChannelSet> reserved_targets;
  for (const Node& other : c.nodes) {
    if (other.phase == Phase::kDone) continue;
    for (const core::SegmentPlan& seg : other.move.target.segments)
      for (std::size_t k = seg.first_link; k <= seg.last_link; ++k)
        reserved_targets[other.move.target.path.links[k].value()].add(
            seg.channel);
  }
  core::WavelengthPlan scratch = n.current;
  bool feasible = true;
  for (core::SegmentPlan& seg : scratch.segments) {
    dwdm::ChannelSet free = dwdm::ChannelSet::all(channels);
    for (std::size_t k = seg.first_link; k <= seg.last_link; ++k) {
      dwdm::ChannelSet avail =
          snap->available_on_link(scratch.path.links[k]);
      const auto it = reserved_targets.find(scratch.path.links[k].value());
      if (it != reserved_targets.end()) avail.subtract(it->second);
      free.intersect(avail);
    }
    const dwdm::ChannelIndex bridge = highest(free);
    if (bridge == dwdm::kNoChannel) {
      feasible = false;
      break;
    }
    seg.channel = bridge;
  }
  if (!feasible) {
    mark_freed(pick);
    mark_done(pick, MoveResult::kSkipped,
              "no bridge channel available to break dependency cycle");
    return true;
  }
  if (launch(pick, scratch, /*scratch_hop=*/true)) {
    ++c.report.cycle_breaks;
    if (telemetry::Telemetry* t = controller_->model().telemetry())
      t->event(telemetry::Severity::kInfo, "reopt", "reopt",
               "breaking dependency cycle via bridge channel, connection " +
                   std::to_string(c.nodes[pick].move.id.value()));
  }
  return true;
}

void MigrationExecutor::finish() {
  std::unique_ptr<Campaign> c = std::move(campaign_);
  for (const Node& n : c->nodes) c->report.outcomes.push_back(n.outcome);
  if (telemetry::Telemetry* t = controller_->model().telemetry())
    t->span_end(c->span,
                !c->report.aborted && c->report.moves_failed == 0,
                c->report.abort_reason);
  if (c->done) c->done(c->report);
}

}  // namespace griphon::reopt
