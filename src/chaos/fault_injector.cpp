#include "chaos/fault_injector.hpp"

#include <algorithm>
#include <sstream>

#include "telemetry/telemetry.hpp"

namespace griphon::chaos {

FaultInjector::FaultInjector(core::NetworkModel* model, FaultPlan plan,
                             std::uint64_t seed)
    : model_(model), plan_(std::move(plan)), rng_(seed) {}

FaultInjector::~FaultInjector() { disarm(); }

bool FaultInjector::targets(const std::string& ems) const {
  if (plan_.ems.targets.empty()) return true;
  return std::find(plan_.ems.targets.begin(), plan_.ems.targets.end(), ems) !=
         plan_.ems.targets.end();
}

std::vector<ems::EmsServer*> FaultInjector::target_servers() {
  std::vector<ems::EmsServer*> out;
  for (ems::EmsServer* s : model_->ems_servers())
    if (targets(s->name())) out.push_back(s);
  return out;
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  for (ems::EmsServer* s : target_servers()) s->set_fault_hook(this);
  if (plan_.wants_channel_faults())
    for (proto::ControlChannel* c : model_->control_channels())
      c->set_fault_hook(this);
  schedule_crashes();
  schedule_ot_faults();
  schedule_fxc_sticks();
  schedule_fiber_cuts();
  record("arm", plan_.name);
}

void FaultInjector::disarm() {
  if (!armed_) return;
  armed_ = false;
  for (ems::EmsServer* s : model_->ems_servers())
    s->set_fault_hook(nullptr);
  for (proto::ControlChannel* c : model_->control_channels())
    c->set_fault_hook(nullptr);
  model_->engine().cancel(crash_event_);
  model_->engine().cancel(ot_event_);
  model_->engine().cancel(fxc_event_);
  model_->engine().cancel(fiber_event_);
  record("disarm", plan_.name);
}

void FaultInjector::heal_all() {
  std::size_t healed = 0;
  for (const auto& ot : model_->ots())
    if (ot->state() == dwdm::Transponder::State::kFailed) {
      ot->repair();
      ++healed;
    }
  for (const auto& node : model_->graph().nodes()) {
    fxc::Fxc& f = model_->fxc_at(node.id);
    // Copy: set_stuck mutates the set we'd be iterating.
    const auto stuck = f.stuck_ports();
    for (const PortId p : stuck) {
      f.set_stuck(p, false);
      ++healed;
    }
  }
  // Copy: repair_link fires the controller's repair path synchronously,
  // and the scheduled splice callbacks also erase from the set.
  const auto cuts = cut_by_injector_;
  for (const LinkId link : cuts) {
    cut_by_injector_.erase(link);
    if (model_->link_failed(link)) {
      model_->repair_link(link);
      ++healed;
    }
  }
  record("heal-all", std::to_string(healed) + " faults repaired");
}

// --- scheduled fault processes --------------------------------------------

void FaultInjector::schedule_crashes() {
  if (plan_.ems.mean_crash_interval <= SimTime{}) return;
  const double wait =
      rng_.exponential(to_seconds(plan_.ems.mean_crash_interval));
  crash_event_ = model_->engine().schedule(from_seconds(wait), [this]() {
    if (!armed_) return;
    auto servers = target_servers();
    if (!servers.empty()) {
      ems::EmsServer* victim = servers[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(servers.size()) - 1))];
      if (!victim->down()) {
        ++stats_.ems_crashes;
        bump(crashes_total_);
        record("ems-crash",
               victim->name() + " down for " +
                   std::to_string(to_seconds(plan_.ems.restart_after)) + "s");
        victim->crash_restart(plan_.ems.restart_after);
      }
    }
    schedule_crashes();
  });
}

void FaultInjector::schedule_ot_faults() {
  if (plan_.device.mean_ot_fault_interval <= SimTime{}) return;
  const double wait =
      rng_.exponential(to_seconds(plan_.device.mean_ot_fault_interval));
  ot_event_ = model_->engine().schedule(from_seconds(wait), [this]() {
    if (!armed_) return;
    // Laser failure on an idle pool OT: the fault is caught by routine
    // diagnostics before the OT is handed out, so its effect is a
    // shrinking spare pool the RWA must route around.
    std::vector<dwdm::Transponder*> idle;
    for (const auto& ot : model_->ots())
      if (ot->state() == dwdm::Transponder::State::kIdle)
        idle.push_back(ot.get());
    if (!idle.empty()) {
      dwdm::Transponder* victim = idle[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(idle.size()) - 1))];
      victim->fail();
      ++stats_.ot_faults;
      bump(device_faults_total_);
      record("ot-fault", victim->name() + " laser failed");
      Alarm alarm;
      alarm.id = alarm_ids_.next();
      alarm.type = AlarmType::kEquipmentFault;
      alarm.raised_at = model_->engine().now();
      alarm.source = victim->name();
      alarm.node = victim->site();
      alarm.detail = "laser failure (injected)";
      model_->roadm_ems().forward_alarm(alarm);
      const TransponderId id = victim->id();
      model_->engine().schedule(plan_.device.ot_repair_after, [this, id]() {
        dwdm::Transponder& ot = model_->ot(id);
        if (ot.state() == dwdm::Transponder::State::kFailed) {
          ot.repair();
          record("ot-repair", ot.name());
        }
      });
    }
    schedule_ot_faults();
  });
}

void FaultInjector::schedule_fxc_sticks() {
  if (plan_.device.mean_fxc_stick_interval <= SimTime{}) return;
  const double wait =
      rng_.exponential(to_seconds(plan_.device.mean_fxc_stick_interval));
  fxc_event_ = model_->engine().schedule(from_seconds(wait), [this]() {
    if (!armed_) return;
    const auto& nodes = model_->graph().nodes();
    if (!nodes.empty()) {
      const auto& node = nodes[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
      fxc::Fxc& f = model_->fxc_at(node.id);
      if (f.port_count() > 0) {
        const PortId port{static_cast<std::uint64_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(f.port_count()) - 1))};
        if (!f.stuck(port)) {
          f.set_stuck(port, true);
          ++stats_.fxc_sticks;
          bump(device_faults_total_);
          record("fxc-stick",
                 f.name() + " port " + std::to_string(port.value()));
          Alarm alarm;
          alarm.id = alarm_ids_.next();
          alarm.type = AlarmType::kEquipmentFault;
          alarm.raised_at = model_->engine().now();
          alarm.source = f.name();
          alarm.node = f.site();
          alarm.detail = "port " + std::to_string(port.value()) +
                         " stuck (injected)";
          model_->fxc_ems().forward_alarm(alarm);
          const NodeId site = node.id;
          model_->engine().schedule(
              plan_.device.fxc_release_after, [this, site, port]() {
                fxc::Fxc& fx = model_->fxc_at(site);
                if (fx.stuck(port)) {
                  fx.set_stuck(port, false);
                  record("fxc-release",
                         fx.name() + " port " + std::to_string(port.value()));
                }
              });
        }
      }
    }
    schedule_fxc_sticks();
  });
}

void FaultInjector::schedule_fiber_cuts() {
  if (plan_.fiber.mean_cut_interval <= SimTime{}) return;
  const double wait =
      rng_.exponential(to_seconds(plan_.fiber.mean_cut_interval));
  fiber_event_ = model_->engine().schedule(from_seconds(wait), [this]() {
    if (!armed_) return;
    cut_fiber(/*overlap_allowed=*/true);
    schedule_fiber_cuts();
  });
}

void FaultInjector::cut_fiber(bool overlap_allowed) {
  // Candidates: links currently up. Failed links (ours or the test's own
  // cuts) are already dark — a second backhoe adds nothing there.
  std::vector<LinkId> up;
  for (const auto& link : model_->graph().links())
    if (!model_->link_failed(link.id)) up.push_back(link.id);
  if (up.empty()) return;
  const LinkId seed = up[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(up.size()) - 1))];

  // With conduit_probability the backhoe takes the whole right-of-way:
  // every SRLG sibling fails in one burst, which the controller's
  // FailureManager should collapse into a single correlated storm event.
  std::vector<LinkId> victims{seed};
  bool conduit = false;
  if (plan_.fiber.conduit_probability > 0.0 &&
      rng_.chance(plan_.fiber.conduit_probability)) {
    for (const LinkId sib : model_->graph().srlg_siblings(seed))
      if (sib != seed && !model_->link_failed(sib)) victims.push_back(sib);
    conduit = victims.size() > 1;
  }

  ++stats_.fiber_cuts;
  if (conduit) ++stats_.conduit_cuts;
  stats_.links_cut += victims.size();
  bump(fiber_cuts_total_);
  record(conduit ? "conduit-cut" : "fiber-cut",
         std::to_string(victims.size()) + " link(s), repair in " +
             std::to_string(to_seconds(plan_.fiber.repair_after)) + "s");
  for (const LinkId link : victims) {
    cut_by_injector_.insert(link);
    model_->fail_link(link);
  }
  model_->engine().schedule(plan_.fiber.repair_after, [this, victims]() {
    std::size_t spliced = 0;
    for (const LinkId link : victims)
      // heal_all() may have beaten the splicing crew to it.
      if (cut_by_injector_.erase(link) != 0 && model_->link_failed(link)) {
        model_->repair_link(link);
        ++spliced;
      }
    if (spliced != 0)
      record("fiber-splice", std::to_string(spliced) + " link(s) repaired");
  });

  // One overlapping follow-up at most per scheduled cut, so a high
  // overlap probability cannot chain-react the whole plant dark.
  if (overlap_allowed && plan_.fiber.overlap_probability > 0.0 &&
      rng_.chance(plan_.fiber.overlap_probability)) {
    const double lag = rng_.exponential(
        to_seconds(plan_.fiber.repair_after) / 2.0);
    model_->engine().schedule(from_seconds(lag), [this]() {
      if (!armed_) return;
      cut_fiber(/*overlap_allowed=*/false);
    });
  }
}

// --- hook implementations --------------------------------------------------

proto::FaultDecision FaultInjector::on_frame() {
  proto::FaultDecision d;
  if (!armed_) return d;
  const auto& ch = plan_.channel;
  if (ch.drop_probability > 0.0 && rng_.chance(ch.drop_probability)) {
    d.drop = true;
    ++stats_.frames_dropped;
    bump(drops_total_);
    return d;
  }
  if (ch.duplicate_probability > 0.0 &&
      rng_.chance(ch.duplicate_probability)) {
    d.duplicate = true;
    ++stats_.frames_duplicated;
    bump(dups_total_);
  }
  if (ch.delay_probability > 0.0 && rng_.chance(ch.delay_probability)) {
    d.extra_delay = ch.extra_delay;
    ++stats_.frames_delayed;
    bump(delays_total_);
  }
  return d;
}

Status FaultInjector::on_command(const std::string& ems,
                                 const proto::Message& message) {
  if (!armed_) return Status::success();
  if (plan_.ems.nack_probability > 0.0 &&
      rng_.chance(plan_.ems.nack_probability)) {
    ++stats_.nacks_injected;
    bump(nacks_total_);
    return Status{ErrorCode::kBusy,
                  ems + ": injected transient fault (" +
                      proto::name_of(proto::type_of(message)) + ")"};
  }
  return Status::success();
}

double FaultInjector::latency_scale(const std::string& ems) {
  (void)ems;  // targeting already decided at hook-install time
  if (!armed_) return 1.0;
  if (plan_.ems.slow_probability > 0.0 &&
      rng_.chance(plan_.ems.slow_probability)) {
    ++stats_.slow_commands;
    bump(slow_total_);
    return plan_.ems.slow_factor;
  }
  return 1.0;
}

// --- bookkeeping -----------------------------------------------------------

void FaultInjector::record(const std::string& kind,
                           const std::string& detail) {
  log_.push_back(Event{model_->engine().now(), kind, detail});
  if (telemetry_ != nullptr)
    telemetry_->event(telemetry::Severity::kWarn, "fault", "chaos",
                      kind + (detail.empty() ? "" : ": " + detail));
}

void FaultInjector::bump(telemetry::Counter* counter) {
  if (counter != nullptr) counter->inc();
}

std::string FaultInjector::render_log() const {
  std::ostringstream out;
  for (const Event& e : log_)
    out << "t=" << to_seconds(e.at) << "s " << e.kind
        << (e.detail.empty() ? "" : " " + e.detail) << "\n";
  return out.str();
}

void FaultInjector::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    nacks_total_ = slow_total_ = crashes_total_ = drops_total_ =
        dups_total_ = delays_total_ = device_faults_total_ =
            fiber_cuts_total_ = nullptr;
    return;
  }
  auto& m = telemetry_->metrics();
  nacks_total_ = m.counter("griphon_chaos_nacks_injected_total",
                           "Commands NACKed by the fault injector");
  slow_total_ = m.counter("griphon_chaos_slow_commands_total",
                          "Commands stretched by the fault injector");
  crashes_total_ = m.counter("griphon_chaos_ems_crashes_total",
                             "EMS crash/restart events injected");
  drops_total_ = m.counter("griphon_chaos_frames_dropped_total",
                           "Control frames dropped by the fault injector");
  dups_total_ = m.counter("griphon_chaos_frames_duplicated_total",
                          "Control frames duplicated by the fault injector");
  delays_total_ = m.counter("griphon_chaos_frames_delayed_total",
                            "Control frames delayed by the fault injector");
  device_faults_total_ = m.counter("griphon_chaos_device_faults_total",
                                   "Device faults injected (OT + FXC)");
  fiber_cuts_total_ = m.counter("griphon_chaos_fiber_cuts_total",
                                "Fiber/conduit cut events injected");
}

}  // namespace griphon::chaos
