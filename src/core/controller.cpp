#include "core/controller.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <sstream>
#include <string_view>

#include "telemetry/telemetry.hpp"

namespace griphon::core {

namespace {

/// Dialogues in flight per EMS domain on the DAG executor.
constexpr std::size_t kDagDomainWindow = 4;
/// Route computation time inside the controller.
constexpr SimTime kPathComputation = milliseconds(500);
/// Traffic hit when rolling between bridged paths.
constexpr SimTime kRollHit = milliseconds(50);

/// Capped exponential backoff: `base` doubled per attempt after the
/// first, at most `cap`.
SimTime backoff(int attempt, SimTime base, SimTime cap) {
  double delay = to_seconds(base);
  for (int i = 1; i < attempt; ++i) delay *= 2.0;
  return std::min(cap, from_seconds(delay));
}

Status response_to_status(const Result<proto::Response>& r) {
  if (!r.ok()) return r.error();
  if (r.value().ok()) return Status::success();
  return Status{static_cast<ErrorCode>(r.value().code), r.value().message};
}

/// Telemetry span name of one EMS command; its actor is the EMS domain of
/// the client the command goes to.
const char* command_name(const proto::Message& m) {
  struct Visitor {
    const char* operator()(const proto::FxcConnect&) { return "fxc.xconnect"; }
    const char* operator()(const proto::FxcDisconnect&) {
      return "fxc.disconnect";
    }
    const char* operator()(const proto::RoadmExpress&) {
      return "roadm.express";
    }
    const char* operator()(const proto::RoadmAddDrop&) {
      return "roadm.add_drop";
    }
    const char* operator()(const proto::OtTune&) { return "ot.tune"; }
    const char* operator()(const proto::OtSetState&) { return "ot.set_state"; }
    const char* operator()(const proto::RegenEngage&) {
      return "regen.engage";
    }
    const char* operator()(const proto::PowerBalance&) {
      return "power.balance";
    }
    const char* operator()(const proto::OtnOp&) { return "otn.op"; }
    const char* operator()(const proto::NtePort&) { return "nte.port"; }
    const char* operator()(const proto::Response&) { return "ems.command"; }
    const char* operator()(const proto::AlarmEvent&) { return "ems.command"; }
    const char* operator()(const proto::EmsBatch&) {
      return "power.balance.batch";
    }
  };
  return std::visit(Visitor{}, m);
}

bool plan_uses_any(const WavelengthPlan& plan,
                   const std::set<LinkId>& links) {
  return std::any_of(plan.path.links.begin(), plan.path.links.end(),
                     [&](LinkId l) { return links.contains(l); });
}

/// Worth a second try? kTimeout: the transport gave up and the command's
/// fate is unknown. kBusy: transient EMS/device contention. Validation
/// NACKs and device faults are deterministic — retrying burns time.
bool command_retryable(ErrorCode code) {
  return code == ErrorCode::kTimeout || code == ErrorCode::kBusy;
}

/// A span's detail for `s`: the error text, or none on success.
std::string_view span_detail(const Status& s) {
  return s.ok() ? std::string_view{} : std::string_view{s.error().message()};
}

/// Concatenate two step lists, re-basing the appended list's dependency
/// indices (they are positions within their own list).
void append_steps(StepList& dst, StepList src) {
  const std::size_t base = dst.size();
  for (Step& s : src) {
    for (std::size_t& d : s.deps) d += base;
    dst.push_back(std::move(s));
  }
}

using State = ConnectionState;

struct Transition {
  State from;
  State to;
};

/// Every legal connection state change, one row per kind of set_state call
/// site. kReleased and kSetupFailed are terminal: no row leaves them.
constexpr Transition kTransitions[] = {
    {State::kPending, State::kSettingUp},      // setup_* starts the train
    {State::kSettingUp, State::kActive},       // finish_setup
    {State::kSettingUp, State::kSetupFailed},  // finish_setup, rolled back
    {State::kSettingUp, State::kFailed},       // mark_failed: cut mid-setup
    {State::kActive, State::kFailed},          // mark_failed
    {State::kActive, State::kRolling},         // roll_to_plan
    {State::kActive, State::kTearingDown},     // release_connection
    {State::kFailed, State::kActive},          // finish_setup, mark_recovered
    {State::kFailed, State::kSetupFailed},     // finish_setup after a cut
    {State::kFailed, State::kRestoring},       // restore_wavelength
    {State::kFailed, State::kTearingDown},     // release of a backlogged one
    {State::kRestoring, State::kActive},       // mark_recovered
    {State::kRestoring, State::kFailed},       // restoration attempt failed
    {State::kRolling, State::kActive},         // roll done or unwound
    {State::kRolling, State::kFailed},         // mark_failed: cut mid-roll
    {State::kTearingDown, State::kReleased},   // teardown finished
};

constexpr bool is_terminal(State s) noexcept {
  return s == State::kReleased || s == State::kSetupFailed;
}

/// A state machine is running: the control plane is not quiescent.
constexpr bool is_transitional(State s) noexcept {
  return s == State::kPending || s == State::kSettingUp ||
         s == State::kRestoring || s == State::kRolling ||
         s == State::kTearingDown;
}

constexpr bool transition_allowed(State from, State to) noexcept {
  for (const Transition& t : kTransitions)
    if (t.from == from && t.to == to) return true;
  return false;
}

static_assert(std::none_of(std::begin(kTransitions), std::end(kTransitions),
                           [](const Transition& t) {
                             return is_terminal(t.from);
                           }),
              "terminal connection states are absorbing");

}  // namespace

GriphonController::GriphonController(NetworkModel* model, Params params)
    : model_(model), params_(params), inventory_(model),
      rwa_(model, &inventory_, params.rwa),
      failures_(&model->engine()),
      ems_health_(&model->engine(), EmsHealthTracker::Params{}) {
  client_domains_ = {
      {&model_->roadm_ems_client(), model_->roadm_ems().name()},
      {&model_->fxc_ems_client(), model_->fxc_ems().name()},
      {&model_->otn_ems_client(), model_->otn_ems().name()},
      {&model_->nte_ems_client(), model_->nte_ems().name()},
  };
  // O(1) snapshot free-bitmap maintenance off device lifecycle
  // transitions (DESIGN.md §15) — no pool re-scan on the plan hot path.
  inventory_.attach_device_listeners(model_);
  // Alarm plumbing: every EMS event stream feeds the failure manager.
  const auto sink = [this](const proto::Frame& frame) {
    handle_alarm_frame(frame);
  };
  model_->roadm_ems_client().on_event(sink);
  model_->fxc_ems_client().on_event(sink);
  model_->otn_ems_client().on_event(sink);
  model_->nte_ems_client().on_event(sink);
  // The failure manager groups localized links by conduit so a backhoe
  // cut arrives as one correlated storm event, not N independent ones.
  failures_.set_srlg_resolver([this](LinkId link) {
    return model_->graph().srlg_siblings(link);
  });
  failures_.on_failure([this](const FailureManager::FailureEvent& event) {
    on_links_failed(event);
  });
  failures_.on_repair(
      [this](const std::vector<LinkId>& links) { on_links_repaired(links); });

  if (model_->config().with_otn) {
    model_->mesh_restorer().on_restore(
        [this](OduCircuitId odu, Status status) {
          const auto it = odu_to_connection_.find(odu);
          if (it == odu_to_connection_.end()) return;
          Connection* c = find_conn(it->second);
          if (c == nullptr) return;
          if (status.ok()) {
            ++c->restorations;
            ++stats_.restorations_ok;
            if (c->state == ConnectionState::kFailed) {
              mark_recovered(*c);
            } else {
              // Mesh restoration finished before alarm correlation even
              // localized the cut; charge the measured sub-second hit.
              const auto& times =
                  model_->mesh_restorer().restoration_times();
              const auto t = times.find(odu);
              if (t != times.end()) c->total_outage += t->second;
            }
            if (telemetry::Telemetry* t = model_->telemetry())
              t->event(telemetry::Severity::kInfo, "restoration",
                       "controller",
                       "connection " + std::to_string(c->id.value()) +
                           " restored by OTN shared mesh",
                       telemetry_tag(c->id));
          } else {
            ++stats_.restorations_failed;
            if (telemetry::Telemetry* t = model_->telemetry())
              t->event(telemetry::Severity::kWarn, "restoration",
                       "controller",
                       "connection " + std::to_string(c->id.value()) +
                           " OTN mesh restoration failed: " +
                           status.error().message(),
                       telemetry_tag(c->id));
          }
        });
    model_->mesh_restorer().on_revert_eligible([this](OduCircuitId odu) {
      // Revertive mode: move traffic home shortly after repair.
      model_->engine().schedule(milliseconds(500), [this, odu]() {
        const auto it = odu_to_connection_.find(odu);
        if (it == odu_to_connection_.end()) return;
        (void)model_->otn().revert_to_primary(odu);
      });
    });
  }
}

Connection& GriphonController::conn(ConnectionId id) {
  const auto it = connections_.find(id);
  if (it == connections_.end())
    throw std::out_of_range("controller: unknown connection");
  return it->second;
}

Connection* GriphonController::find_conn(ConnectionId id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

const Connection& GriphonController::connection(ConnectionId id) const {
  const auto it = connections_.find(id);
  if (it == connections_.end())
    throw std::out_of_range("controller: unknown connection");
  return it->second;
}

const Connection* GriphonController::find_connection(
    ConnectionId id) const noexcept {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

void GriphonController::set_state(Connection& c, ConnectionState to) {
  const ConnectionState from = c.state;
  const bool indexed = live_.contains(c.id);
  // Only a fresh record is unindexed without being terminal; it enters
  // the index as kPending.
  assert(indexed ? transition_allowed(from, to)
                 : from == State::kPending && to == State::kPending);
  if (indexed) {
    if (c.is_up()) --up_connections_;
    if (is_transitional(from)) --transitional_connections_;
  }
  c.state = to;
  if (is_terminal(to)) {
    live_.erase(c.id);
    live_by_customer_[c.customer].erase(c.id);
    return;
  }
  if (!indexed) {
    live_.insert(c.id);
    live_by_customer_[c.customer].insert(c.id);
  }
  if (c.is_up()) ++up_connections_;
  if (is_transitional(to)) ++transitional_connections_;
}

std::vector<ConnectionId> GriphonController::connections_of(
    CustomerId customer) const {
  const auto it = live_by_customer_.find(customer);
  if (it == live_by_customer_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

Result<std::size_t> GriphonController::pick_free_nte_port(MuxponderId nte) {
  const auto& device = model_->nte(nte);
  for (std::size_t p = 0; p < dwdm::Muxponder::kClientPorts; ++p) {
    if (device.port_in_use(p)) continue;
    if (reserved_nte_ports_.contains({nte, p})) continue;
    reserved_nte_ports_.insert({nte, p});
    return p;
  }
  return Error{ErrorCode::kResourceExhausted,
               "controller: access pipe fully used at site"};
}

void GriphonController::release_nte_port(MuxponderId nte, std::size_t port) {
  reserved_nte_ports_.erase({nte, port});
}

// --------------------------------------------------------------------------
// Command sequencing
// --------------------------------------------------------------------------

const std::string& GriphonController::domain_of(
    const proto::RequestClient* client) const {
  static const std::string kUnknown = "ems";
  const auto it = client_domains_.find(client);
  return it == client_domains_.end() ? kUnknown : it->second;
}

void GriphonController::issue_command(
    proto::RequestClient* client, proto::Message message,
    proto::RequestClient::ResponseCallback cb, int attempt,
    std::uint64_t idem_key) {
  ems_health_.set_telemetry(model_->telemetry());
  const std::string& domain = domain_of(client);
  if (!ems_health_.allow(domain)) {
    // Breaker open: shed the command without touching the wire, so a dead
    // EMS costs microseconds, not a protocol-timeout ladder. Deferred one
    // event to keep callback ordering identical to the wire path.
    ++stats_.commands_shed;
    ++pending_commands_;
    model_->engine().schedule(
        SimTime{}, [this, domain, cb = std::move(cb)]() {
          --pending_commands_;
          cb(Error{ErrorCode::kUnavailable,
                   "controller: " + domain + " circuit breaker open"});
        });
    return;
  }
  ++pending_commands_;
  // The id the frame actually went out under; needed to reuse it as the
  // idempotency key on a retry-after-timeout. request() returns before any
  // callback can fire (single-threaded sim), so the shared slot is always
  // populated by then.
  auto sent_id = std::make_shared<std::uint64_t>(0);
  *sent_id = client->request(
      message,
      [this, client, message, cb = std::move(cb), attempt, sent_id](
          Result<proto::Response> r) mutable {
        --pending_commands_;
        const bool transport_timeout =
            !r.ok() && r.error().code() == ErrorCode::kTimeout;
        if (transport_timeout)
          ems_health_.record_timeout(domain_of(client));
        else
          ems_health_.record_success(domain_of(client));
        const Status s = response_to_status(r);
        // Total tries per command.
        constexpr int kMaxAttempts = 3;
        if (!s.ok() && command_retryable(s.error().code()) &&
            attempt < kMaxAttempts) {
          ++stats_.commands_retried;
          // After a timeout the command may or may not have executed:
          // retry under the SAME request id so the EMS either replays its
          // cached response or executes once. A NACK is cached under this
          // id too, so a retryable NACK must go out under a fresh id.
          const std::uint64_t reuse = transport_timeout ? *sent_id : 0;
          if (telemetry::Telemetry* t = model_->telemetry())
            t->event(telemetry::Severity::kWarn, "retry", domain_of(client),
                     "command retry, attempt " + std::to_string(attempt) +
                         ": " + s.error().message());
          // Exponential backoff, each delay jittered by a uniform
          // +/- fraction.
          constexpr SimTime kBackoffBase = seconds(2);
          constexpr SimTime kBackoffCap = seconds(30);
          constexpr double kJitter = 0.25;
          const SimTime delay = from_seconds(
              to_seconds(backoff(attempt, kBackoffBase, kBackoffCap)) *
              model_->engine().rng().uniform(1.0 - kJitter, 1.0 + kJitter));
          model_->engine().schedule(
              delay,
              [this, client, message = std::move(message),
               cb = std::move(cb), attempt, reuse]() mutable {
                issue_command(client, std::move(message), std::move(cb),
                              attempt + 1, reuse);
              });
          return;
        }
        cb(std::move(r));
      },
      idem_key);
}

struct GriphonController::RunState {
  std::shared_ptr<StepList> steps;
  bool best_effort = false;
  RunDone done;
  std::vector<std::size_t> succeeded;
  Status first_error = Status::success();
  std::uint64_t parent_span = 0;     // 0 = no per-command spans
  std::unique_ptr<StepDag> dag;
  std::unique_ptr<DagScheduler> sched;
  std::vector<std::string> domains;  // per-step EMS domain
  SimTime run_start{};
  StepDagReport report;
  bool done_called = false;
};

void GriphonController::run_steps(std::shared_ptr<StepList> steps,
                                  bool best_effort, RunDone done,
                                  std::uint64_t parent_span) {
  auto state = std::make_shared<RunState>();
  state->steps = std::move(steps);
  state->best_effort = best_effort;
  state->done = std::move(done);
  if (model_->telemetry() != nullptr) state->parent_span = parent_span;
  if (state->steps->empty()) {
    state->done(Status::success(), {});
    return;
  }
  const StepList& list = *state->steps;
  state->dag = std::make_unique<StepDag>(
      params_.exec_mode == ExecMode::kSequential ? StepDag::chain(list.size())
                                                 : StepDag(list));
  state->domains.reserve(list.size());
  for (const Step& s : list) state->domains.push_back(domain_of(s.client));
  state->sched = std::make_unique<DagScheduler>(
      state->dag.get(), state->domains, kDagDomainWindow);
  state->run_start = model_->engine().now();
  state->report.started_at_s = to_seconds(state->run_start);
  state->report.steps.resize(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    DagStepRecord& rec = state->report.steps[i];
    rec.name = command_name(list[i].forward);
    rec.domain = state->domains[i];
    rec.deps = state->dag->deps_of(i);
  }
  pump_dag(state);
}

void GriphonController::pump_dag(const std::shared_ptr<RunState>& state) {
  if (state->done_called) return;
  while (const auto next = state->sched->acquire()) {
    const std::size_t i = *next;
    const Step& step = (*state->steps)[i];

    // Batch window: sweep every other ready stateless sibling on the same
    // EMS into this dialogue — they pay the management overhead once. A
    // chain never has a second ready step, so sequential runs stay
    // unbatched.
    std::vector<std::size_t> members{i};
    if (std::holds_alternative<proto::PowerBalance>(step.forward)) {
      auto peers = state->sched->drain_ready(
          state->domains[i], [&](std::size_t j) {
            return (*state->steps)[j].client == step.client &&
                   std::holds_alternative<proto::PowerBalance>(
                       (*state->steps)[j].forward);
          });
      members.insert(members.end(), peers.begin(), peers.end());
    }

    proto::Message message = step.forward;
    if (members.size() > 1) {
      proto::EmsBatch batch;
      for (const std::size_t j : members)
        batch.items.push_back(
            std::get<proto::PowerBalance>((*state->steps)[j].forward));
      message = proto::Message{std::move(batch)};
    }

    stats_.commands_issued += members.size();
    std::uint64_t span = 0;
    if (state->parent_span != 0)
      if (telemetry::Telemetry* t = model_->telemetry())
        span = t->span_start(command_name(message), state->domains[i], 0,
                             state->parent_span);
    const double start_s =
        to_seconds(model_->engine().now() - state->run_start);
    for (const std::size_t j : members) {
      state->report.steps[j].start_s = start_s;
      state->report.steps[j].batched = members.size() > 1;
    }

    issue_command(
        step.client, std::move(message),
        [this, state, i, members, span](Result<proto::Response> r) {
          const Status s = response_to_status(r);
          if (span != 0)
            if (telemetry::Telemetry* t = model_->telemetry())
              t->span_end(span, s.ok(), span_detail(s));
          const double end_s =
              to_seconds(model_->engine().now() - state->run_start);
          for (const std::size_t j : members) {
            state->report.steps[j].end_s = end_s;
            state->report.steps[j].ok = s.ok();
          }
          state->sched->slot_done(i);  // one window slot per dialogue
          if (s.ok()) {
            for (const std::size_t j : members) {
              state->succeeded.push_back(j);
              state->sched->release(j);
            }
          } else {
            if (state->first_error.ok()) state->first_error = s;
            if (state->best_effort) {
              // Keep going: dependents of a failed step still run, exactly
              // as sequential best-effort does.
              for (const std::size_t j : members) state->sched->release(j);
            } else {
              state->sched->abort();
            }
          }
          pump_dag(state);
        });
  }
  if (state->sched->finished()) finish_dag(state);
}

void GriphonController::finish_dag(const std::shared_ptr<RunState>& state) {
  if (state->done_called) return;
  state->done_called = true;
  Status s = state->first_error;
  if (s.ok() && state->sched->stuck() > 0)
    s = Status{ErrorCode::kInternal,
               "controller: dependency cycle in command train (" +
                   std::to_string(state->sched->stuck()) +
                   " steps unreachable)"};
  double total = 0.0;
  for (const DagStepRecord& rec : state->report.steps)
    total = std::max(total, rec.end_s);
  state->report.total_s = total;
  mark_critical_path(state->report);
  // Nothing reads the run's report after this: the scheduler is idle, so
  // no completion callback of this run is still to come.
  last_dag_report_ = std::move(state->report);
  std::sort(state->succeeded.begin(), state->succeeded.end());
  state->done(s, std::move(state->succeeded));
}

void GriphonController::rollback_steps(std::shared_ptr<StepList> steps,
                                       std::vector<std::size_t> succeeded,
                                       std::function<void()> done,
                                       std::uint64_t parent_span) {
  // Reverse completion order with reverse dependency edges: an undo may
  // only run once the undos of everything that depended on its forward
  // step are done (a cross-connect is removed before the port under it is
  // disabled). Both executors honor the edges — the chain by list order.
  run_steps(std::make_shared<StepList>(build_undo_steps(*steps, succeeded)),
            /*best_effort=*/true,
            [done = std::move(done)](Status, std::vector<std::size_t>) {
              done();
            },
            parent_span);
}

Status GriphonController::admit_optical_plan(const WavelengthPlan& plan,
                                             DataRate rate,
                                             std::uint64_t parent_span) {
  std::vector<dwdm::ReachModel::Segment> segments;
  segments.reserve(plan.segments.size());
  for (const auto& seg : plan.segments)
    segments.push_back(
        dwdm::ReachModel::Segment{seg.first_link, seg.last_link});
  const dwdm::ReachModel::Admission verdict = model_->reach().admit(
      model_->graph(), plan.path, segments, dwdm::profile_for(rate));
  if (telemetry::Telemetry* t = model_->telemetry()) {
    std::ostringstream detail;
    detail << "worst margin " << verdict.worst_margin_db << " dB across "
           << verdict.segment_margins_db.size() << " segment(s)";
    // Zero-duration event: the decision is a model lookup, not a probe
    // dialogue — that is the point.
    const SimTime now = model_->engine().now();
    t->span_record("optical_admission", "controller", 0, parent_span, now,
                   now, verdict.admitted, detail.str());
  }
  if (!verdict.admitted)
    return Status{ErrorCode::kUnreachable,
                  "controller: optical admission rejected route (worst "
                  "margin " +
                      std::to_string(verdict.worst_margin_db) + " dB)"};
  return Status::success();
}

// --------------------------------------------------------------------------
// Step construction
// --------------------------------------------------------------------------

StepList GriphonController::build_access_setup(const Connection& c) const {
  StepList steps;
  auto* nte_client = &model_->nte_ems_client();
  auto* fxc_client = &model_->fxc_ems_client();

  // Customer NTE client ports at both premises.
  auto nte_port = [&](MuxponderId site, std::size_t port) {
    const auto p = static_cast<std::uint32_t>(port);
    steps.push_back(Step{nte_client, proto::NtePort{site, p, true},
                         proto::Message{proto::NtePort{site, p, false}}});
  };
  nte_port(c.src_site, c.src_nte_port);
  nte_port(c.dst_site, c.dst_nte_port);

  // FXC: steer each access channel onto the service — the chosen OT's
  // client port for a wavelength, the OTN switch client port of the ODU
  // circuit otherwise. The NTE port must be up before the cross-connect
  // that steers it.
  const otn::OduCircuit* circuit =
      c.kind == ConnectionKind::kWavelength ? nullptr
                                            : &model_->otn().circuit(c.odu);
  auto steer = [&](NodeId pop, MuxponderId site, std::size_t nte_port,
                   TransponderId ot, std::size_t otn_port,
                   std::size_t nte_step) {
    fxc::Fxc& f = model_->fxc_at(pop);
    const auto access = f.port_for(fxc::Wiring::Kind::kCustomerAccess,
                                   site.value(), nte_port);
    const auto target =
        circuit == nullptr
            ? f.port_for(fxc::Wiring::Kind::kTransponderClient, ot.value(), 0)
            : f.port_for(fxc::Wiring::Kind::kOtnClientPort,
                         model_->otn().switch_at(pop)->id().value(),
                         otn_port);
    assert(access && target && "FXC wiring missing");
    steps.push_back(
        Step{fxc_client, proto::FxcConnect{f.id(), *access, *target},
             proto::Message{proto::FxcDisconnect{f.id(), *access}},
             {nte_step}});
  };
  steer(c.src_pop, c.src_site, c.src_nte_port, c.plan.src_ot,
        circuit == nullptr ? 0 : circuit->src_port, 0);
  steer(c.dst_pop, c.dst_site, c.dst_nte_port, c.plan.dst_ot,
        circuit == nullptr ? 0 : circuit->dst_port, 1);
  return steps;
}

StepList GriphonController::build_wavelength_setup(
    const WavelengthPlan& plan) const {
  StepList steps;
  auto* roadm = &model_->roadm_ems_client();
  const auto& path = plan.path;

  auto degree = [&](NodeId node, LinkId link) {
    const auto d = model_->roadm_at(node).degree_for(link);
    assert(d && "path link not on a ROADM degree");
    return static_cast<std::int32_t>(*d);
  };
  auto roadm_id = [&](NodeId node) {
    return model_->roadm_at(node).id();
  };

  const dwdm::ChannelIndex first_ch = plan.segments.front().channel;
  const dwdm::ChannelIndex last_ch = plan.segments.back().channel;

  // Dependency bookkeeping: `seg_cfg[s]` collects the ROADM-configuration
  // steps of transparent segment s (its power balancing waits for them);
  // `path_steps` collects every path-building step (activation waits for
  // all of them).
  std::vector<std::vector<std::size_t>> seg_cfg(plan.segments.size());
  std::vector<std::size_t> path_steps;

  // Tune endpoint transponders to their segment wavelengths.
  const std::size_t src_tune = steps.size();
  steps.push_back(Step{roadm, proto::OtTune{plan.src_ot, first_ch},
                       proto::Message{proto::OtSetState{
                           plan.src_ot, proto::OtSetState::Action::kReset}}});
  const std::size_t dst_tune = steps.size();
  steps.push_back(Step{roadm, proto::OtTune{plan.dst_ot, last_ch},
                       proto::Message{proto::OtSetState{
                           plan.dst_ot, proto::OtSetState::Action::kReset}}});
  path_steps.push_back(src_tune);
  path_steps.push_back(dst_tune);

  // Endpoint add/drop (colorless, non-directional ports). The transponder
  // must be tuned before the add/drop that references its wavelength.
  const NodeId src = path.nodes.front();
  const NodeId dst = path.nodes.back();
  seg_cfg.front().push_back(steps.size());
  path_steps.push_back(steps.size());
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(src), model_->roadm_port_of_ot(plan.src_ot),
                          degree(src, path.links.front()), first_ch, true},
      proto::Message{proto::RoadmAddDrop{
          roadm_id(src), model_->roadm_port_of_ot(plan.src_ot), 0, 0,
          false}},
      {src_tune}});
  seg_cfg.back().push_back(steps.size());
  path_steps.push_back(steps.size());
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(dst), model_->roadm_port_of_ot(plan.dst_ot),
                          degree(dst, path.links.back()), last_ch, true},
      proto::Message{proto::RoadmAddDrop{
          roadm_id(dst), model_->roadm_port_of_ot(plan.dst_ot), 0, 0,
          false}},
      {dst_tune}});

  // Regenerators at segment boundaries: two add/drop ports + engage. The
  // regen engages only after both of its add/drops are configured.
  for (std::size_t b = 0; b < plan.regens.size(); ++b) {
    const auto& seg_in = plan.segments[b];
    const auto& seg_out = plan.segments[b + 1];
    const NodeId site = path.nodes[seg_in.last_link + 1];
    const RegenId regen = plan.regens[b];
    const auto [up_port, down_port] = model_->roadm_ports_of_regen(regen);
    const std::size_t up_step = steps.size();
    seg_cfg[b].push_back(up_step);
    path_steps.push_back(up_step);
    steps.push_back(Step{
        roadm,
        proto::RoadmAddDrop{roadm_id(site), up_port,
                            degree(site, path.links[seg_in.last_link]),
                            seg_in.channel, true},
        proto::Message{
            proto::RoadmAddDrop{roadm_id(site), up_port, 0, 0, false}}});
    const std::size_t down_step = steps.size();
    seg_cfg[b + 1].push_back(down_step);
    path_steps.push_back(down_step);
    steps.push_back(Step{
        roadm,
        proto::RoadmAddDrop{roadm_id(site), down_port,
                            degree(site, path.links[seg_out.first_link]),
                            seg_out.channel, true},
        proto::Message{
            proto::RoadmAddDrop{roadm_id(site), down_port, 0, 0, false}}});
    // The engaged regen is the light source of the downstream segment.
    seg_cfg[b + 1].push_back(steps.size());
    path_steps.push_back(steps.size());
    steps.push_back(
        Step{roadm,
             proto::RegenEngage{regen, seg_in.channel, seg_out.channel, true},
             proto::Message{proto::RegenEngage{regen, seg_in.channel,
                                               seg_out.channel, false}},
             {up_step, down_step}});
  }

  // Express cross-connects at nodes interior to each transparent segment.
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    const auto& seg = plan.segments[s];
    for (std::size_t j = seg.first_link; j < seg.last_link; ++j) {
      const NodeId node = path.nodes[j + 1];
      seg_cfg[s].push_back(steps.size());
      path_steps.push_back(steps.size());
      steps.push_back(Step{
          roadm,
          proto::RoadmExpress{roadm_id(node), seg.channel,
                              degree(node, path.links[j]),
                              degree(node, path.links[j + 1]), true},
          proto::Message{proto::RoadmExpress{
              roadm_id(node), seg.channel, degree(node, path.links[j]),
              degree(node, path.links[j + 1]), false}}});
    }
  }

  // Per-link power balancing + equalization (the per-hop optical task).
  // A segment balances once its ROADM configuration is in; segments
  // balance independently of each other.
  for (std::size_t s = 0; s < plan.segments.size(); ++s) {
    const auto& seg = plan.segments[s];
    for (std::size_t j = seg.first_link; j <= seg.last_link; ++j) {
      path_steps.push_back(steps.size());
      steps.push_back(Step{
          roadm, proto::PowerBalance{path.links[j], seg.channel},
          std::nullopt, seg_cfg[s]});
    }
  }

  // Light it up — only after the whole path is built and balanced.
  steps.push_back(
      Step{roadm,
           proto::OtSetState{plan.src_ot, proto::OtSetState::Action::kActivate},
           proto::Message{proto::OtSetState{
               plan.src_ot, proto::OtSetState::Action::kDeactivate}},
           path_steps});
  steps.push_back(
      Step{roadm,
           proto::OtSetState{plan.dst_ot, proto::OtSetState::Action::kActivate},
           proto::Message{proto::OtSetState{
               plan.dst_ot, proto::OtSetState::Action::kDeactivate}},
           path_steps});
  return steps;
}

StepList GriphonController::build_wavelength_teardown(
    const WavelengthPlan& plan) const {
  StepList steps;
  auto* roadm = &model_->roadm_ems_client();
  const auto& path = plan.path;
  auto roadm_id = [&](NodeId node) { return model_->roadm_at(node).id(); };
  auto degree = [&](NodeId node, LinkId link) {
    const auto d = model_->roadm_at(node).degree_for(link);
    assert(d);
    return static_cast<std::int32_t>(*d);
  };

  // Stop the light first: everything else unconfigures only after both
  // endpoint transponders are dark.
  const std::size_t deact_src = steps.size();
  steps.push_back(Step{roadm,
                       proto::OtSetState{plan.src_ot,
                                         proto::OtSetState::Action::kDeactivate},
                       std::nullopt});
  const std::size_t deact_dst = steps.size();
  steps.push_back(Step{roadm,
                       proto::OtSetState{plan.dst_ot,
                                         proto::OtSetState::Action::kDeactivate},
                       std::nullopt});
  const std::vector<std::size_t> dark{deact_src, deact_dst};
  for (const auto& seg : plan.segments) {
    for (std::size_t j = seg.first_link; j < seg.last_link; ++j) {
      const NodeId node = path.nodes[j + 1];
      steps.push_back(Step{roadm,
                           proto::RoadmExpress{roadm_id(node), seg.channel,
                                               degree(node, path.links[j]),
                                               degree(node, path.links[j + 1]),
                                               false},
                           std::nullopt, dark});
    }
  }
  for (std::size_t b = 0; b < plan.regens.size(); ++b) {
    const auto& seg_in = plan.segments[b];
    const NodeId site = path.nodes[seg_in.last_link + 1];
    const RegenId regen = plan.regens[b];
    const auto [up_port, down_port] = model_->roadm_ports_of_regen(regen);
    // Disengage the regen before tearing its add/drop ports out from
    // under it.
    const std::size_t regen_release = steps.size();
    steps.push_back(Step{
        roadm, proto::RegenEngage{regen, 0, 0, false}, std::nullopt, dark});
    steps.push_back(
        Step{roadm, proto::RoadmAddDrop{roadm_id(site), up_port, 0, 0, false},
             std::nullopt, {regen_release}});
    steps.push_back(Step{
        roadm, proto::RoadmAddDrop{roadm_id(site), down_port, 0, 0, false},
        std::nullopt, {regen_release}});
  }
  const NodeId src = path.nodes.front();
  const NodeId dst = path.nodes.back();
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(src), model_->roadm_port_of_ot(plan.src_ot),
                          0, 0, false},
      std::nullopt, {deact_src}});
  steps.push_back(Step{
      roadm,
      proto::RoadmAddDrop{roadm_id(dst), model_->roadm_port_of_ot(plan.dst_ot),
                          0, 0, false},
      std::nullopt, {deact_dst}});

  return steps;
}

StepList GriphonController::build_release(const Connection& c) const {
  // The dark step of each side: a wavelength teardown deactivates its
  // source and destination OTs first (steps 0 and 1); a sub-wavelength
  // service goes dark with its ODU release (step 0) on both sides.
  const bool wavelength = c.kind == ConnectionKind::kWavelength;
  StepList steps;
  std::size_t dark_src = 0;
  std::size_t dark_dst = 0;
  if (wavelength) {
    steps = build_wavelength_teardown(c.plan);
    dark_dst = 1;
  } else {
    proto::OtnOp release;
    release.op = proto::OtnOp::Op::kRelease;
    release.circuit = c.odu;
    steps.push_back(Step{&model_->otn_ems_client(), release, std::nullopt});
  }
  auto* fxc_client = &model_->fxc_ems_client();
  auto* nte_client = &model_->nte_ems_client();
  auto unsteer = [&](NodeId pop, MuxponderId site, std::size_t nte_port,
                     std::size_t dark_step) {
    fxc::Fxc& f = model_->fxc_at(pop);
    const auto access = f.port_for(fxc::Wiring::Kind::kCustomerAccess,
                                   site.value(), nte_port);
    assert(access);
    steps.push_back(Step{fxc_client, proto::FxcDisconnect{f.id(), *access},
                         std::nullopt, {dark_step}});
  };
  const std::size_t fxc_src = steps.size();
  unsteer(c.src_pop, c.src_site, c.src_nte_port, dark_src);
  const std::size_t fxc_dst = steps.size();
  unsteer(c.dst_pop, c.dst_site, c.dst_nte_port, dark_dst);
  auto nte_off = [&](MuxponderId site, std::size_t port, std::size_t fxc_step) {
    steps.push_back(
        Step{nte_client,
             proto::NtePort{site, static_cast<std::uint32_t>(port), false},
             std::nullopt, {fxc_step}});
  };
  nte_off(c.src_site, c.src_nte_port, fxc_src);
  nte_off(c.dst_site, c.dst_nte_port, fxc_dst);
  if (wavelength && c.standby)
    append_steps(steps, build_wavelength_teardown(*c.standby));
  return steps;
}

// --------------------------------------------------------------------------
// Reservations
// --------------------------------------------------------------------------

void GriphonController::reserve_plan(const WavelengthPlan& plan) {
  for (const auto& seg : plan.segments)
    for (std::size_t j = seg.first_link; j <= seg.last_link; ++j)
      inventory_.reserve_channel(plan.path.links[j], seg.channel);
  inventory_.reserve_ot(plan.src_ot);
  inventory_.reserve_ot(plan.dst_ot);
  for (const RegenId r : plan.regens) inventory_.reserve_regen(r);
}

void GriphonController::unreserve_plan(const WavelengthPlan& plan) {
  for (const auto& seg : plan.segments)
    for (std::size_t j = seg.first_link; j <= seg.last_link; ++j)
      inventory_.release_channel(plan.path.links[j], seg.channel);
  inventory_.release_ot(plan.src_ot);
  inventory_.release_ot(plan.dst_ot);
  for (const RegenId r : plan.regens) inventory_.release_regen(r);
}

// --------------------------------------------------------------------------
// Setup
// --------------------------------------------------------------------------

void GriphonController::request_connection(const ConnectionRequest& request,
                                           SetupCallback cb) {
  const CustomerSite* src = model_->site_by_nte(request.src_site);
  const CustomerSite* dst = model_->site_by_nte(request.dst_site);
  if (src == nullptr || dst == nullptr) {
    cb(Error{ErrorCode::kNotFound, "controller: unknown customer site"});
    return;
  }
  if (src->customer != request.customer || dst->customer != request.customer) {
    cb(Error{ErrorCode::kPermissionDenied,
             "controller: site belongs to another customer"});
    return;
  }
  if (src->core_pop == dst->core_pop) {
    cb(Error{ErrorCode::kInvalidArgument,
             "controller: sites share a core PoP (no backbone segment)"});
    return;
  }
  if (request.rate > rates::k40G) {
    cb(Error{ErrorCode::kInvalidArgument,
             "controller: rate above the 40G service ceiling"});
    return;
  }
  if (request.rate < rates::k1G) {
    // The service-evolution model (paper Fig. 2): "below 1 Gbps is
    // transported via the IP layer as EVCs" — not a GRIPhoN circuit.
    cb(Error{ErrorCode::kInvalidArgument,
             "controller: sub-1G demand belongs to the IP layer (EVC), not "
             "the circuit BoD service"});
    return;
  }

  Connection c;
  c.id = ids_.next();
  c.customer = request.customer;
  c.src_site = request.src_site;
  c.dst_site = request.dst_site;
  c.src_pop = src->core_pop;
  c.dst_pop = dst->core_pop;
  c.rate = request.rate;
  c.protection = request.protection;
  c.tier = request.tier;
  c.kind = request.rate >= rates::k10G ? ConnectionKind::kWavelength
                                       : ConnectionKind::kSubWavelength;
  c.requested_at = model_->engine().now();

  auto sp = pick_free_nte_port(c.src_site);
  if (!sp.ok()) {
    cb(sp.error());
    return;
  }
  c.src_nte_port = sp.value();
  auto dp = pick_free_nte_port(c.dst_site);
  if (!dp.ok()) {
    release_nte_port(c.src_site, c.src_nte_port);
    cb(dp.error());
    return;
  }
  c.dst_nte_port = dp.value();

  const ConnectionId id = c.id;
  Connection& rec = connections_.emplace(id, std::move(c)).first->second;
  set_state(rec, ConnectionState::kPending);
  if (telemetry::Telemetry* t = model_->telemetry()) {
    rec.setup_span = t->span_start(
        "connection_setup", "controller", telemetry_tag(id), 0);
    metrics_.requests.in(t->metrics()).inc();
    t->event(telemetry::Severity::kInfo, "lifecycle", "controller",
             "connection " + std::to_string(id.value()) + " requested",
             telemetry_tag(id));
  }
  if (rec.kind == ConnectionKind::kWavelength)
    setup_wavelength(id, std::move(cb));
  else
    setup_subwavelength(id, std::move(cb));
}

void GriphonController::finish_setup(ConnectionId id, Status status,
                                     SetupCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Error{ErrorCode::kNotFound, "controller: connection vanished"});
    return;
  }
  if (telemetry::Telemetry* t = model_->telemetry()) {
    t->span_end(c->setup_span, status.ok(), span_detail(status));
    c->setup_span = 0;
    auto& m = t->metrics();
    (status.ok() ? metrics_.setups_ok : metrics_.setups_failed)
        .inc(m, c->customer);
    const double setup_s =
        to_seconds(model_->engine().now() - c->requested_at);
    if (status.ok()) metrics_.setup_seconds.in(m).observe(setup_s);
    if (status.ok())
      t->event(telemetry::Severity::kInfo, "lifecycle", "controller",
               "connection " + std::to_string(id.value()) + " active after " +
                   std::to_string(setup_s) + "s",
               telemetry_tag(id));
    else
      t->event(telemetry::Severity::kWarn, "lifecycle", "controller",
               "connection " + std::to_string(id.value()) +
                   " setup failed: " + status.error().message(),
               telemetry_tag(id));
  }
  if (status.ok()) {
    set_state(*c, ConnectionState::kActive);
    c->active_at = model_->engine().now();
    c->setup_duration = c->active_at - c->requested_at;
    ++stats_.setups_ok;
    // A fiber may have died *while* the command train was running; the
    // commands themselves still succeed (devices accept configuration on a
    // dark degree). Treat the connection as failed-at-birth and let the
    // normal restoration machinery take over.
    if (c->kind == ConnectionKind::kWavelength &&
        plan_uses_any(c->plan, failures_.believed_failed())) {
      const ConnectionId cid = id;
      mark_failed(*c);
      if (c->protection == ProtectionMode::kRestorable)
        enqueue_restoration(cid);
    }
    cb(id);
  } else {
    set_state(*c, ConnectionState::kSetupFailed);
    release_nte_port(c->src_site, c->src_nte_port);
    release_nte_port(c->dst_site, c->dst_nte_port);
    ++stats_.setups_failed;
    cb(status.error());
  }
}

void GriphonController::setup_wavelength(ConnectionId id, SetupCallback cb) {
  Connection& c = conn(id);
  set_state(c, ConnectionState::kSettingUp);
  std::uint64_t think_span = 0;
  if (telemetry::Telemetry* t = model_->telemetry())
    think_span =
        t->span_start("path_computation", "controller", 0, c.setup_span);
  model_->engine().schedule(kPathComputation, [this, id, think_span,
                                               cb = std::move(cb)]() mutable {
    Connection* c = find_conn(id);
    if (c == nullptr) return;
    auto plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate);
    if (telemetry::Telemetry* t = model_->telemetry())
      t->span_end(think_span, plan.ok());
    if (!plan.ok()) {
      finish_setup(id, plan.error(), std::move(cb));
      return;
    }
    c->plan = std::move(plan).value();
    // Probe-free optical admission: verify the plan's OSNR margins before
    // the first EMS command goes out, instead of probing mid-train.
    if (const Status adm =
            admit_optical_plan(c->plan, c->rate, c->setup_span);
        !adm.ok()) {
      finish_setup(id, adm, std::move(cb));
      return;
    }
    reserve_plan(c->plan);
    auto steps = std::make_shared<StepList>(build_access_setup(*c));
    append_steps(*steps, build_wavelength_setup(c->plan));
    const std::uint64_t setup_span = c->setup_span;
    run_steps(steps, /*best_effort=*/false,
              [this, id, steps, cb = std::move(cb)](
                  Status status, std::vector<std::size_t> succeeded) mutable {
                Connection* c = find_conn(id);
                if (c == nullptr) return;
                unreserve_plan(c->plan);
                if (!status.ok()) {
                  rollback_steps(steps, std::move(succeeded),
                                 [this, id, status, cb = std::move(cb)]() mutable {
                                   finish_setup(id, status, std::move(cb));
                                 },
                                 c->setup_span);
                  return;
                }
                if (c->protection == ProtectionMode::kOnePlusOne) {
                  // Provision the dedicated protection leg before declaring
                  // the service up: 1+1 is sold as protected from second one.
                  Exclusions avoid;
                  for (const LinkId l : c->plan.path.links)
                    for (const LinkId sibling :
                         model_->graph().srlg_siblings(l))
                      avoid.links.insert(sibling);
                  for (std::size_t i = 1; i + 1 < c->plan.path.nodes.size();
                       ++i)
                    avoid.nodes.insert(c->plan.path.nodes[i]);
                  auto standby =
                      rwa_.plan(c->src_pop, c->dst_pop, c->rate, avoid);
                  Status standby_status = standby.ok()
                                              ? Status::success()
                                              : Status{standby.error()};
                  if (standby_status.ok())
                    standby_status = admit_optical_plan(
                        standby.value(), c->rate, c->setup_span);
                  if (!standby_status.ok()) {
                    // No disjoint admissible capacity: fail the request.
                    auto teardown =
                        std::make_shared<StepList>(build_release(*c));
                    run_steps(teardown, true,
                              [this, id, err = standby_status.error(),
                               cb = std::move(cb)](
                                  Status, std::vector<std::size_t>) mutable {
                                finish_setup(id, err, std::move(cb));
                              });
                    return;
                  }
                  c->standby = std::move(standby).value();
                  reserve_plan(*c->standby);
                  auto steps2 = std::make_shared<StepList>(
                      build_wavelength_setup(*c->standby));
                  run_steps(steps2, false,
                            [this, id, steps2, cb = std::move(cb)](
                                Status s2,
                                std::vector<std::size_t> ok2) mutable {
                              Connection* c = find_conn(id);
                              if (c == nullptr) return;
                              unreserve_plan(*c->standby);
                              if (!s2.ok()) {
                                rollback_steps(
                                    steps2, std::move(ok2),
                                    [this, id, s2, cb = std::move(cb)]() mutable {
                                      Connection* c = find_conn(id);
                                      if (c == nullptr) return;
                                      c->standby.reset();
                                      auto teardown =
                                          std::make_shared<StepList>(
                                              build_release(*c));
                                      run_steps(
                                          teardown, true,
                                          [this, id, s2, cb = std::move(cb)](
                                              Status,
                                              std::vector<std::size_t>) mutable {
                                            finish_setup(id, s2,
                                                         std::move(cb));
                                          });
                                    },
                                    c->setup_span);
                                return;
                              }
                              finish_setup(id, Status::success(),
                                           std::move(cb));
                            },
                            c->setup_span);
                  return;
                }
                finish_setup(id, Status::success(), std::move(cb));
              },
              setup_span);
  });
}

void GriphonController::setup_subwavelength(ConnectionId id,
                                            SetupCallback cb) {
  Connection& c = conn(id);
  set_state(c, ConnectionState::kSettingUp);
  send_otn_create(id, std::move(cb), /*allow_groom=*/true);
}

void GriphonController::send_otn_create(ConnectionId id, SetupCallback cb,
                                        bool allow_groom) {
  Connection* c0 = find_conn(id);
  if (c0 == nullptr) return;
  // Phase 1: ask the OTN switch EMS to route and cross-connect the ODU
  // circuit through the OTN layer (shared-mesh protected when requested).
  proto::OtnOp create;
  create.op = proto::OtnOp::Op::kCreate;
  create.customer = c0->customer;
  create.src = c0->src_pop;
  create.dst = c0->dst_pop;
  create.rate_bps = c0->rate.in_bps();
  create.protect = c0->protection != ProtectionMode::kUnprotected;
  ++stats_.commands_issued;
  std::uint64_t span = 0;
  if (telemetry::Telemetry* t = model_->telemetry())
    span = t->span_start("otn.op", domain_of(&model_->otn_ems_client()), 0,
                         c0->setup_span);
  issue_command(
      &model_->otn_ems_client(), proto::Message{create},
      [this, id, allow_groom, span,
       cb = std::move(cb)](Result<proto::Response> r) mutable {
        const Status s = response_to_status(r);
        if (telemetry::Telemetry* t = model_->telemetry())
          t->span_end(span, s.ok(), span_detail(s));
        if (!s.ok()) {
          Connection* c = find_conn(id);
          if (s.error().code() == ErrorCode::kUnreachable && allow_groom &&
              c != nullptr) {
            // The OTN layer is out of tributary capacity on this relation:
            // groom a fresh OTU carrier onto the DWDM layer, then retry.
            if (telemetry::Telemetry* t = model_->telemetry())
              t->event(telemetry::Severity::kInfo, "grooming", "controller",
                       "connection " + std::to_string(id.value()) +
                           ": no OTN capacity; provisioning a new carrier",
                       telemetry_tag(id));
            groom_new_carrier(
                c->src_pop, c->dst_pop,
                [this, id, cb = std::move(cb)](Status gs) mutable {
                  if (!gs.ok()) {
                    finish_setup(id, gs, std::move(cb));
                    return;
                  }
                  send_otn_create(id, std::move(cb), /*allow_groom=*/false);
                });
            return;
          }
          finish_setup(id, s, std::move(cb));
          return;
        }
        Connection* c = find_conn(id);
        if (c == nullptr) return;
        c->odu = OduCircuitId{r.value().aux};
        odu_to_connection_[c->odu] = id;
        setup_subwavelength_access(id, std::move(cb));
      });
}

void GriphonController::setup_subwavelength_access(ConnectionId id,
                                                   SetupCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) return;
  // Phase 2: access plumbing — NTE ports + FXC steering of the access
  // channels onto the OTN switch client ports.
  auto steps = std::make_shared<StepList>(build_access_setup(*c));
  const std::uint64_t setup_span = c->setup_span;
  run_steps(steps, false,
            [this, id, steps, setup_span, cb = std::move(cb)](
                Status status, std::vector<std::size_t> succeeded) mutable {
              if (status.ok()) {
                finish_setup(id, Status::success(), std::move(cb));
                return;
              }
              rollback_steps(
                  steps, std::move(succeeded),
                  [this, id, status, cb = std::move(cb)]() mutable {
                    Connection* c = find_conn(id);
                    if (c != nullptr && c->odu.valid()) {
                      proto::OtnOp release;
                      release.op = proto::OtnOp::Op::kRelease;
                      release.circuit = c->odu;
                      ++stats_.commands_issued;
                      issue_command(&model_->otn_ems_client(),
                                    proto::Message{release},
                                    [](Result<proto::Response>) {});
                      odu_to_connection_.erase(c->odu);
                      c->odu = OduCircuitId{};
                    }
                    finish_setup(id, status, std::move(cb));
                  },
                  setup_span);
            },
            setup_span);
}

void GriphonController::groom_new_carrier(NodeId a, NodeId b,
                                          DoneCallback cb) {
  // A carrier is a plain wavelength whose endpoints feed the OTN switches'
  // line ports; it consumes spectrum, two pool OTs as line optics, and any
  // regens the route needs — exactly what it costs the carrier.
  auto plan = rwa_.plan(a, b, rates::k10G);
  if (!plan.ok()) {
    cb(plan.error());
    return;
  }
  const WavelengthPlan wplan = std::move(plan).value();
  if (const Status adm = admit_optical_plan(wplan, rates::k10G, 0);
      !adm.ok()) {
    cb(adm);
    return;
  }
  reserve_plan(wplan);
  auto steps = std::make_shared<StepList>(build_wavelength_setup(wplan));
  run_steps(steps, false,
            [this, a, b, wplan, steps, cb = std::move(cb)](
                Status status, std::vector<std::size_t> succeeded) mutable {
              unreserve_plan(wplan);
              if (!status.ok()) {
                rollback_steps(steps, std::move(succeeded),
                               [status, cb = std::move(cb)]() mutable {
                                 cb(status);
                               },
                               0);
                return;
              }
              auto carrier = model_->add_otn_carrier(
                  a, b, rates::k10G, wplan.path.links);
              if (!carrier.ok()) {
                cb(carrier.error());
                return;
              }
              ++carriers_groomed_;
              groomed_plans_[carrier.value()] = wplan;
              if (telemetry::Telemetry* t = model_->telemetry())
                t->event(telemetry::Severity::kInfo, "grooming", "controller",
                         "new OTU carrier " +
                             std::to_string(carrier.value().value()));
              cb(Status::success());
            });
}

void GriphonController::decommission_idle_carriers(DoneCallback cb) {
  std::vector<CarrierId> idle;
  for (const auto& [carrier_id, plan] : groomed_plans_) {
    const auto& carrier = model_->otn().carrier(carrier_id);
    if (carrier.retired()) continue;
    if (carrier.allocated_slots() == 0 && carrier.shared_reserved_slots() == 0)
      idle.push_back(carrier_id);
  }
  if (idle.empty()) {
    cb(Status::success());
    return;
  }
  auto remaining = std::make_shared<std::size_t>(idle.size());
  for (const CarrierId carrier_id : idle) {
    // Retire first so nothing new lands while the wavelength comes down.
    if (const Status s = model_->otn().retire_carrier(carrier_id); !s.ok()) {
      if (--*remaining == 0) cb(Status::success());
      continue;
    }
    const WavelengthPlan plan = groomed_plans_.at(carrier_id);
    groomed_plans_.erase(carrier_id);
    auto steps = std::make_shared<StepList>(build_wavelength_teardown(plan));
    run_steps(steps, /*best_effort=*/true,
              [this, carrier_id, remaining, cb](Status,
                                                std::vector<std::size_t>) {
                if (telemetry::Telemetry* t = model_->telemetry())
                  t->event(telemetry::Severity::kInfo, "grooming",
                           "controller",
                           "OTU carrier " +
                               std::to_string(carrier_id.value()) +
                               " decommissioned");
                kick_restoration_backlog();
                if (--*remaining == 0) cb(Status::success());
              });
  }
}

// --------------------------------------------------------------------------
// Release
// --------------------------------------------------------------------------

void GriphonController::release_connection(ConnectionId id, DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Status{ErrorCode::kNotFound, "controller: unknown connection"});
    return;
  }
  if (c->state == ConnectionState::kReleased ||
      c->state == ConnectionState::kTearingDown) {
    cb(Status{ErrorCode::kConflict, "controller: already releasing"});
    return;
  }
  if (c->state == ConnectionState::kRestoring ||
      c->state == ConnectionState::kRolling ||
      c->state == ConnectionState::kSettingUp) {
    // The orchestration FSM holds partially-built state; let it finish.
    cb(Status{ErrorCode::kBusy,
              "controller: connection busy (setup/restore/roll in flight)"});
    return;
  }
  set_state(*c, ConnectionState::kTearingDown);
  // A backlogged (kFailed) connection can be released; drop its retry
  // entry so no backoff timer resurrects it mid-teardown.
  if (restore_backlog_.erase(id) != 0) update_restoration_gauges();
  if (telemetry::Telemetry* t = model_->telemetry())
    c->op_span =
        t->span_start("connection_release", "controller", telemetry_tag(id),
                      0);

  auto finish = [this, id, cb](Status status) {
    Connection* c = find_conn(id);
    if (c == nullptr) return;
    release_nte_port(c->src_site, c->src_nte_port);
    release_nte_port(c->dst_site, c->dst_nte_port);
    set_state(*c, ConnectionState::kReleased);
    ++stats_.releases;
    if (telemetry::Telemetry* t = model_->telemetry()) {
      t->span_end(c->op_span, status.ok());
      c->op_span = 0;
      metrics_.releases.inc(t->metrics(), c->customer);
      t->event(telemetry::Severity::kInfo, "lifecycle", "controller",
               "connection " + std::to_string(id.value()) + " released",
               telemetry_tag(id));
    }
    // The teardown freed channels and devices — capacity a backlogged
    // restoration may have been starving for.
    kick_restoration_backlog();
    cb(status);
  };

  auto steps = std::make_shared<StepList>(build_release(*c));
  const OduCircuitId odu = c->odu;
  run_steps(steps, /*best_effort=*/true,
            [this, odu, finish](Status status, std::vector<std::size_t>) {
              if (odu.valid()) odu_to_connection_.erase(odu);
              finish(status);
            },
            c->op_span);
}

// --------------------------------------------------------------------------
// Failure handling
// --------------------------------------------------------------------------

void GriphonController::handle_alarm_frame(const proto::Frame& frame) {
  // Keep the failure manager's sink in lock-step with the model's (the
  // sink may be attached after construction); a pointer store, idempotent.
  failures_.set_telemetry(model_->telemetry());
  const auto* ev = std::get_if<proto::AlarmEvent>(&frame.message);
  if (ev == nullptr) return;
  if (ev->alarm.type == AlarmType::kEmsRestart) {
    // The EMS lost its command queues and response cache in the crash;
    // device state may have diverged from the inventory. Audit once the
    // control plane quiets down.
    if (telemetry::Telemetry* t = model_->telemetry())
      t->event(telemetry::Severity::kWarn, "resync", "controller",
               ev->alarm.source +
                   " restarted: scheduling reconciliation audit");
    schedule_resync();
    return;
  }
  failures_.ingest(ev->alarm);
}

void GriphonController::mark_failed(Connection& c) {
  if (c.state == ConnectionState::kFailed ||
      c.state == ConnectionState::kRestoring)
    return;
  set_state(c, ConnectionState::kFailed);
  c.outage_started_at = model_->engine().now();
  if (telemetry::Telemetry* t = model_->telemetry())
    t->event(telemetry::Severity::kWarn, "lifecycle", "controller",
             "connection " + std::to_string(c.id.value()) +
                 " failed (outage started)",
             telemetry_tag(c.id));
}

void GriphonController::mark_recovered(Connection& c) {
  if (c.state != ConnectionState::kFailed &&
      c.state != ConnectionState::kRestoring)
    return;
  c.total_outage += model_->engine().now() - c.outage_started_at;
  set_state(c, ConnectionState::kActive);
  // Service is back — retire the retry-backlog entry (if any) so a stale
  // backoff timer cannot relaunch a restoration of a healthy connection.
  if (restore_backlog_.erase(c.id) != 0) update_restoration_gauges();
  if (telemetry::Telemetry* t = model_->telemetry())
    t->event(telemetry::Severity::kInfo, "lifecycle", "controller",
             "connection " + std::to_string(c.id.value()) + " recovered (" +
                 std::to_string(to_seconds(c.total_outage)) +
                 "s outage total)",
             telemetry_tag(c.id));
}

void GriphonController::on_links_failed(
    const FailureManager::FailureEvent& event) {
  const std::vector<LinkId>& links = event.links;
  if (event.storm && !storm_active_) {
    // Degraded mode: restoration demand just exceeded what serial handling
    // was designed for. The flag holds until the pipeline drains; reopt
    // campaigns stand down while it is up.
    storm_active_ = true;
    if (telemetry::Telemetry* t = model_->telemetry()) {
      metrics_.storms.in(t->metrics()).inc();
      t->event(telemetry::Severity::kWarn, "restoration", "controller",
               "restoration storm: " + std::to_string(links.size()) +
                   " link(s) across " + std::to_string(event.conduits) +
                   " conduit(s)");
    }
  }
  const std::set<LinkId> failed(links.begin(), links.end());
  // A copy: the body changes states, and with them the index.
  const std::vector<ConnectionId> live(live_.begin(), live_.end());
  for (const ConnectionId id : live) {
    Connection& c = conn(id);
    if (!c.is_up() && c.state != ConnectionState::kSettingUp) continue;
    if (c.kind == ConnectionKind::kWavelength) {
      const WavelengthPlan& active =
          (c.traffic_on_standby && c.standby) ? *c.standby : c.plan;
      if (!plan_uses_any(active, failed)) continue;
      const bool mid_setup = c.state == ConnectionState::kSettingUp;
      mark_failed(c);
      if (mid_setup) continue;  // finish_setup re-checks and restores
      if (c.protection == ProtectionMode::kOnePlusOne && c.standby) {
        tail_end_switch(c, /*failover=*/true);
      } else if (c.protection == ProtectionMode::kRestorable) {
        enqueue_restoration(id);
      }
    } else {
      // Sub-wavelength: the OTN layer knows; mirror its state. Mesh
      // restoration (if protected) reports back through the restorer.
      if (!c.odu.valid()) continue;
      const auto& circuit = model_->otn().circuit(c.odu);
      if (circuit.state == otn::OduCircuit::State::kFailed) mark_failed(c);
    }
  }
  if (topology_observer_) topology_observer_(links, /*failed=*/true);
  // A storm with no restorable victims drains immediately.
  maybe_clear_storm();
  update_restoration_gauges();
}

void GriphonController::on_links_repaired(const std::vector<LinkId>& links) {
  const std::set<LinkId>& believed = failures_.believed_failed();
  (void)links;
  const std::vector<ConnectionId> live(live_.begin(), live_.end());
  for (const ConnectionId id : live) {
    Connection& c = conn(id);
    if (c.state != ConnectionState::kFailed) continue;
    if (c.kind == ConnectionKind::kWavelength) {
      const WavelengthPlan& active =
          (c.traffic_on_standby && c.standby) ? *c.standby : c.plan;
      if (!plan_uses_any(active, believed)) {
        if (c.deprovisioned) {
          // A failed restoration attempt already released this path's
          // devices: light alone is not service; re-provision now.
          if (c.protection == ProtectionMode::kRestorable)
            enqueue_restoration(id);
        } else {
          // Light returns on the repaired fiber; devices never
          // deconfigured.
          mark_recovered(c);
        }
      } else if (c.protection == ProtectionMode::kOnePlusOne && c.standby) {
        // The active leg is still dark but the other one may just have
        // come back.
        tail_end_switch(c, /*failover=*/false);
      }
    } else if (c.odu.valid()) {
      const auto& circuit = model_->otn().circuit(c.odu);
      if (circuit.state == otn::OduCircuit::State::kActive ||
          circuit.state == otn::OduCircuit::State::kOnBackup)
        mark_recovered(c);
    }
  }
  // Repair is the strongest re-arm signal the backlog gets: dormant
  // entries wake and the backoff clock restarts (the world changed).
  kick_restoration_backlog(/*reset_attempts=*/true);
  if (topology_observer_) topology_observer_(links, /*failed=*/false);
}

void GriphonController::tail_end_switch(const Connection& c, bool failover) {
  const WavelengthPlan& other = c.traffic_on_standby ? c.plan : *c.standby;
  if (plan_uses_any(other, failures_.believed_failed())) return;
  model_->engine().schedule(kRollHit, [this, id = c.id, failover]() {
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) return;
    c->traffic_on_standby = !c->traffic_on_standby;
    if (failover) ++c->restorations;
    mark_recovered(*c);
    if (telemetry::Telemetry* t = model_->telemetry())
      t->event(telemetry::Severity::kInfo, "restoration", "controller",
               "connection " + std::to_string(id.value()) +
                   (failover ? " switched to its 1+1 protection leg"
                             : " switched back to its repaired 1+1 leg"),
               telemetry_tag(id));
  });
}

void GriphonController::enqueue_restoration(ConnectionId id) {
  if (std::find(restore_queue_.begin(), restore_queue_.end(), id) !=
      restore_queue_.end())
    return;
  restore_queue_.push_back(id);
  // Gold before silver before bronze; FIFO within a tier (stable sort).
  std::stable_sort(restore_queue_.begin(), restore_queue_.end(),
                   [this](ConnectionId a, ConnectionId b) {
                     const Connection* ca = find_conn(a);
                     const Connection* cb = find_conn(b);
                     if (ca == nullptr || cb == nullptr) return false;
                     return static_cast<int>(ca->tier) <
                            static_cast<int>(cb->tier);
                   });
  // Defer the dispatch one event so that a burst of failures (one cut,
  // many connections) is fully enqueued — and therefore fully sorted —
  // before the first restoration is picked.
  model_->engine().schedule(SimTime{}, [this]() { pump_restorations(); });
}

void GriphonController::pump_restorations() {
  // Wavelength restoration trains (no access steps) are dominated by ROADM
  // EMS dialogues: OT tuning, add/drop, regens, power balancing. Admission
  // is gated on that domain — every restoration counts against it, so the
  // effective parallelism is min(max_concurrent, per_domain_inflight).
  const std::string& domain = model_->roadm_ems().name();
  while (restorations_in_flight_ < params_.restoration.max_concurrent &&
         !restore_queue_.empty()) {
    const ConnectionId id = restore_queue_.front();
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) {
      restore_queue_.erase(restore_queue_.begin());
      continue;
    }
    if (ems_health_.state(domain) == EmsHealthTracker::BreakerState::kOpen) {
      // The domain's breaker is open: nothing restores until it heals.
      // Send the head to the backlog (bounded backoff, observable) rather
      // than spinning or burning the half-open probe slot.
      restore_queue_.erase(restore_queue_.begin());
      backlog_restoration(id, "restoration shed: " + domain +
                                  " breaker open");
      continue;
    }
    if (restorations_in_flight_ >= params_.restoration.per_domain_inflight)
      break;  // a landing restoration re-pumps
    restore_queue_.erase(restore_queue_.begin());
    if (restore_backlog_.contains(id)) {
      ++stats_.restorations_retried;
      if (telemetry::Telemetry* t = model_->telemetry())
        metrics_.retries.in(t->metrics()).inc();
    }
    ++restorations_in_flight_;
    update_restoration_gauges();
    restore_wavelength(id, [this]() {
      --restorations_in_flight_;
      // Deferred one event: restore_wavelength's early exits call done
      // synchronously, and a re-entrant pump inside the launch loop would
      // act on half-updated counters.
      model_->engine().schedule(SimTime{}, [this]() { pump_restorations(); });
    });
  }
  maybe_clear_storm();
  update_restoration_gauges();
}

void GriphonController::backlog_restoration(ConnectionId id,
                                            const std::string& why) {
  Connection* c = find_conn(id);
  if (c == nullptr || c->protection != ProtectionMode::kRestorable) return;
  // Timed retries before an entry goes dormant.
  constexpr int kMaxTimedRetries = 6;
  BacklogEntry& e = restore_backlog_[id];
  ++e.attempts;
  const std::uint64_t gen = ++e.generation;
  if (e.attempts > kMaxTimedRetries) {
    // Timed retries exhausted: go dormant. Only an external event — a
    // repair, a capacity-freeing teardown or roll — re-arms this entry,
    // so a permanently unroutable connection cannot keep the event loop
    // (or a drain-to-idle test) alive forever.
    e.dormant = true;
    if (telemetry::Telemetry* t = model_->telemetry())
      t->event(telemetry::Severity::kWarn, "restoration", "controller",
               "connection " + std::to_string(id.value()) +
                   " backlog dormant after " +
                   std::to_string(e.attempts - 1) + " timed retries: " + why,
               telemetry_tag(id));
    update_restoration_gauges();
    maybe_clear_storm();
    return;
  }
  e.dormant = false;
  // Retry backoff, 10 s doubling to at most 300 s. Deterministic (no
  // jitter): chaos soaks compare digests across runs.
  constexpr SimTime kRetryBase = seconds(10);
  constexpr SimTime kRetryCap = seconds(300);
  const SimTime delay = backoff(e.attempts, kRetryBase, kRetryCap);
  if (telemetry::Telemetry* t = model_->telemetry())
    t->event(telemetry::Severity::kInfo, "restoration", "controller",
             "connection " + std::to_string(id.value()) +
                 " backlogged, retry #" + std::to_string(e.attempts) +
                 " in " + std::to_string(to_seconds(delay)) + "s",
             telemetry_tag(id));
  model_->engine().schedule(delay, [this, id, gen]() {
    const auto it = restore_backlog_.find(id);
    if (it == restore_backlog_.end() || it->second.generation != gen ||
        it->second.dormant)
      return;  // re-armed, recovered or released meanwhile
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) return;
    enqueue_restoration(id);
  });
  update_restoration_gauges();
}

void GriphonController::kick_restoration_backlog(bool reset_attempts) {
  if (restore_backlog_.empty()) return;
  for (auto& [id, e] : restore_backlog_) {
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kFailed) continue;
    if (reset_attempts) {
      e.attempts = 0;
      e.preemptions = 0;
    }
    e.dormant = false;
    ++e.generation;  // cancels any armed backoff timer
    enqueue_restoration(id);
  }
  update_restoration_gauges();
}

void GriphonController::maybe_clear_storm() {
  if (!storm_active_) return;
  if (!restore_queue_.empty() || restorations_in_flight_ != 0) return;
  for (const auto& [id, e] : restore_backlog_)
    if (!e.dormant) return;  // an armed retry still owns the storm
  storm_active_ = false;
  if (telemetry::Telemetry* t = model_->telemetry())
    t->event(telemetry::Severity::kInfo, "restoration", "controller",
             "restoration storm cleared (pipeline drained)");
  update_restoration_gauges();
}

void GriphonController::update_restoration_gauges() {
  telemetry::Telemetry* t = model_->telemetry();
  if (t == nullptr) return;
  auto& m = t->metrics();
  metrics_.backlog_depth.in(m).set(
      static_cast<double>(restore_backlog_.size()));
  metrics_.queue_depth.in(m).set(static_cast<double>(restore_queue_.size()));
  metrics_.in_flight.in(m).set(static_cast<double>(restorations_in_flight_));
  metrics_.storm_active.in(m).set(storm_active_ ? 1.0 : 0.0);
}

void GriphonController::restore_wavelength(ConnectionId id,
                                           std::function<void()> done) {
  Connection* c0 = find_conn(id);
  if (c0 == nullptr || c0->state != ConnectionState::kFailed) {
    done();
    return;
  }
  set_state(*c0, ConnectionState::kRestoring);
  const SimTime restore_started = model_->engine().now();
  if (telemetry::Telemetry* t = model_->telemetry()) {
    c0->op_span =
        t->span_start("restoration", "controller", telemetry_tag(id), 0);
    t->event(telemetry::Severity::kInfo, "restoration", "controller",
             "connection " + std::to_string(id.value()) +
                 " restoration started",
             telemetry_tag(id));
  }
  // Ends the restoration root span + counts the attempt, on every exit.
  auto close_restore = [this, id, restore_started](bool ok,
                                                   const std::string& why) {
    telemetry::Telemetry* t = model_->telemetry();
    if (t == nullptr) return;
    Connection* c = find_conn(id);
    if (c != nullptr) {
      t->span_end(c->op_span, ok, why);
      c->op_span = 0;
    }
    auto& m = t->metrics();
    (ok ? metrics_.restorations_ok : metrics_.restorations_failed)
        .in(m)
        .inc();
    if (ok)
      metrics_.restore_seconds.in(m).observe(
          to_seconds(model_->engine().now() - restore_started));
    t->event(ok ? telemetry::Severity::kInfo : telemetry::Severity::kWarn,
             "lifecycle", "controller",
             "connection " + std::to_string(id.value()) +
                 (ok ? " restored" : " restoration failed: " + why),
             telemetry_tag(id));
  };

  // Steps 2+ (replan, admit, reprovision), entered either after the old
  // path's release or directly on a backlog retry that already released it.
  auto proceed = [this, id, done, close_restore]() {
    Connection* c = find_conn(id);
    if (c == nullptr || c->state != ConnectionState::kRestoring) {
      close_restore(false, "connection left restoring state");
      done();
      return;
    }
    // 2. Compute a path around the failure.
    std::uint64_t replan_span = 0;
    if (telemetry::Telemetry* t = model_->telemetry())
      replan_span = t->span_start("replan", "controller", 0, c->op_span);
    model_->engine().schedule(kPathComputation, [this, id, done,
                                                 close_restore, replan_span]() {
      Connection* c = find_conn(id);
      if (c == nullptr || c->state != ConnectionState::kRestoring) {
        if (telemetry::Telemetry* t = model_->telemetry())
          t->span_end(replan_span, false);
        close_restore(false, "connection left restoring state");
        done();
        return;
      }
      // Failed attempts return to kFailed and enter the retry backlog —
      // the outage continues, but it is never dropped on the floor.
      auto fail_attempt = [this, id, done,
                           close_restore](const std::string& why) {
        ++stats_.restorations_failed;
        if (Connection* cc = find_conn(id); cc != nullptr)
          set_state(*cc, ConnectionState::kFailed);
        backlog_restoration(id, why);
        close_restore(false, why);
        done();
      };
      // SRLG-diverse replan: avoid not just the failed plant but every
      // conduit-mate of it — a "diverse" path through a sibling fiber of
      // the cut conduit dies with the next backhoe swing. Fall back to
      // failed-links-only exclusions when no diverse route exists at all
      // (restoring onto a surviving sibling beats staying dark).
      Exclusions avoid;
      for (const LinkId l : failures_.believed_failed())
        avoid.links.insert(l);
      Exclusions diverse = avoid;
      for (const LinkId l : failures_.believed_failed())
        for (const LinkId sibling : model_->graph().srlg_siblings(l))
          diverse.links.insert(sibling);
      auto plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate, diverse);
      if (!plan.ok() && plan.error().code() == ErrorCode::kUnreachable &&
          diverse.links.size() > avoid.links.size()) {
        plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate, avoid);
        if (plan.ok()) {
          ++stats_.restorations_non_diverse;
          if (telemetry::Telemetry* t = model_->telemetry()) {
            metrics_.non_diverse.in(t->metrics()).inc();
            t->event(telemetry::Severity::kWarn, "restoration", "controller",
                     "connection " + std::to_string(id.value()) +
                         ": no SRLG-diverse route; restoring onto a conduit "
                         "sibling",
                     telemetry_tag(id));
          }
        }
      }
      if (telemetry::Telemetry* t = model_->telemetry())
        t->span_end(replan_span, plan.ok());
      if (!plan.ok()) {
        // 3. Out of wavelengths (not out of routes): a gold restoration
        // may preempt best-effort BoD calendar windows to free channels.
        // The freed capacity lands asynchronously as those teardowns
        // complete, each one kicking the backlog this failure is about
        // to enter.
        // Preemption rounds one connection may trigger before it has to
        // wait for organic capacity.
        constexpr int kMaxPreemptionsPerConnection = 2;
        if (plan.error().code() == ErrorCode::kResourceExhausted &&
            c->tier == ServiceTier::kGold && preemption_hook_) {
          BacklogEntry& e = restore_backlog_[id];
          if (e.preemptions < kMaxPreemptionsPerConnection) {
            ++e.preemptions;
            ++stats_.preemptions_requested;
            const std::size_t freed = preemption_hook_(
                c->src_pop, c->dst_pop, c->rate, avoid.links);
            stats_.bod_windows_preempted += freed;
            if (telemetry::Telemetry* t = model_->telemetry()) {
              metrics_.preemptions.in(t->metrics()).inc(freed);
              t->event(telemetry::Severity::kWarn, "restoration",
                       "controller",
                       "gold restoration " + std::to_string(id.value()) +
                           " preempted " + std::to_string(freed) +
                           " BoD window(s)",
                       telemetry_tag(id));
            }
          }
        }
        fail_attempt(plan.error().message());
        return;
      }
      // Reuse the connection's own transponders: the access FXC patches
      // still point at them, and they are free again after the teardown.
      WavelengthPlan new_plan = std::move(plan).value();
      new_plan.src_ot = c->plan.src_ot;
      new_plan.dst_ot = c->plan.dst_ot;
      if (const Status adm =
              admit_optical_plan(new_plan, c->rate, c->op_span);
          !adm.ok()) {
        fail_attempt(adm.error().message());
        return;
      }
      reserve_plan(new_plan);
      std::uint64_t reprov_span = 0;
      if (telemetry::Telemetry* t = model_->telemetry())
        reprov_span =
            t->span_start("reprovision", "controller", 0, c->op_span);
      auto steps = std::make_shared<StepList>(
          build_wavelength_setup(new_plan));
      run_steps(steps, false,
                [this, id, new_plan, steps, done, close_restore, reprov_span](
                    Status status, std::vector<std::size_t> succeeded) {
                  if (telemetry::Telemetry* t = model_->telemetry())
                    t->span_end(reprov_span, status.ok());
                  Connection* c = find_conn(id);
                  if (c == nullptr) {
                    close_restore(false, "connection vanished");
                    done();
                    return;
                  }
                  unreserve_plan(new_plan);
                  if (status.ok()) {
                    c->plan = new_plan;
                    c->deprovisioned = false;
                    ++c->restorations;
                    ++stats_.restorations_ok;
                    mark_recovered(*c);
                    close_restore(true, {});
                  } else {
                    ++stats_.restorations_failed;
                    const std::string why = status.error().message();
                    rollback_steps(steps, std::move(succeeded),
                                   [this, id, why]() {
                      Connection* c = find_conn(id);
                      if (c != nullptr) set_state(*c, ConnectionState::kFailed);
                      // Backlogged only once the rollback released the
                      // half-built path — a retry must not race its own
                      // cleanup.
                      backlog_restoration(id, why);
                    },
                    c->op_span);
                    close_restore(false, why);
                  }
                  done();
                },
                reprov_span);
    });
  };

  if (c0->deprovisioned) {
    // Backlog retry: the first attempt already released the old path, and
    // its channels may since have been re-acquired by other connections —
    // tearing "our" old path down again would disconnect their devices.
    proceed();
    return;
  }
  // 1. Release the dead path's configuration (keeps access + OTs).
  std::uint64_t release_span = 0;
  if (telemetry::Telemetry* t = model_->telemetry())
    release_span =
        t->span_start("release_old_path", "controller", 0, c0->op_span);
  auto teardown = std::make_shared<StepList>(
      build_wavelength_teardown(c0->plan));
  run_steps(teardown, /*best_effort=*/true,
            [this, id, proceed, release_span](Status,
                                              std::vector<std::size_t>) {
              if (telemetry::Telemetry* t = model_->telemetry())
                t->span_end(release_span);
              if (Connection* c = find_conn(id);
                  c != nullptr && c->state == ConnectionState::kRestoring)
                c->deprovisioned = true;  // old path released; not live
              proceed();
            },
            release_span);
}

// --------------------------------------------------------------------------
// Bridge-and-roll, maintenance, re-grooming
// --------------------------------------------------------------------------

void GriphonController::roll_to_plan(ConnectionId id,
                                     const WavelengthPlan& new_plan,
                                     DoneCallback cb) {
  Connection* c0 = find_conn(id);
  // Stricter than is_up(): kRestoring means a restoration owns the state
  // machine right now (a fiber cut can land during the roll's path-compute
  // think time), and kRolling means another roll does. Starting a roll in
  // either state would clobber the in-flight operation.
  if (c0 == nullptr || c0->state != ConnectionState::kActive) {
    cb(Status{ErrorCode::kConflict, "controller: connection not rollable"});
    return;
  }
  if (const Status adm = admit_optical_plan(new_plan, c0->rate, 0);
      !adm.ok()) {
    cb(adm);
    return;
  }
  set_state(*c0, ConnectionState::kRolling);
  reserve_plan(new_plan);
  std::uint64_t bridge_span = 0;
  if (telemetry::Telemetry* t = model_->telemetry()) {
    c0->op_span =
        t->span_start("bridge_and_roll", "controller", telemetry_tag(id), 0);
    bridge_span = t->span_start("bridge", "controller", 0, c0->op_span);
  }
  // Failure handling (a fiber cut on the in-service path) can take the
  // connection out of kRolling while the bridge is still building. The
  // restoration machinery owns the state machine from that point; every
  // roll callback below re-checks the state and, if it lost the race,
  // unwinds the bridge and stands down instead of clobbering the
  // restoration. c->op_span may already belong to the restoration then,
  // so the roll's root span handle is captured by value here.
  const std::uint64_t roll_span = c0->op_span;
  // Counts a failed roll and closes its root span, on either failure exit.
  auto roll_failed = [this, roll_span](Connection& c, const std::string& why) {
    ++stats_.rolls_failed;
    if (telemetry::Telemetry* t = model_->telemetry()) {
      t->span_end(roll_span, false, why);
      if (c.op_span == roll_span) c.op_span = 0;
      metrics_.rolls_failed.in(t->metrics()).inc();
    }
  };
  // Bridge: build the new path end to end while traffic rides the old one.
  auto steps = std::make_shared<StepList>(build_wavelength_setup(new_plan));
  run_steps(steps, false, [this, id, new_plan, steps, bridge_span, roll_span,
                           roll_failed, cb = std::move(cb)](
                              Status status,
                              std::vector<std::size_t> succeeded) mutable {
    if (telemetry::Telemetry* t = model_->telemetry())
      t->span_end(bridge_span, status.ok());
    Connection* c = find_conn(id);
    if (c == nullptr) {
      unreserve_plan(new_plan);
      return;
    }
    unreserve_plan(new_plan);
    if (!status.ok() || c->state != ConnectionState::kRolling) {
      const Status out =
          status.ok()
              ? Status{ErrorCode::kConflict,
                       "controller: connection failed during bridge; "
                       "restoration owns recovery"}
              : status;
      roll_failed(*c, out.error().message());
      rollback_steps(steps, std::move(succeeded),
                     [this, id, out, cb = std::move(cb)]() mutable {
                       Connection* c = find_conn(id);
                       // Only un-wedge a still-rolling connection; a failed
                       // or restoring one belongs to failure handling.
                       if (c != nullptr &&
                           c->state == ConnectionState::kRolling)
                         set_state(*c, ConnectionState::kActive);
                       cb(out);
                     },
                     roll_span);
      return;
    }
    // Roll: the NTE bridges the client signal to both paths; the receive
    // side selects the new one. The service hit is tens of milliseconds.
    model_->engine().schedule(kRollHit, [this, id, new_plan, steps,
                                                 roll_span, roll_failed,
                                                 cb = std::move(cb)]() mutable {
      Connection* c = find_conn(id);
      if (c == nullptr) return;
      if (c->state != ConnectionState::kRolling) {
        // The cut landed in the post-bridge settling window. The bridge is
        // fully built, so unwind all of it and let restoration recover the
        // service on whatever path it finds.
        roll_failed(*c, "superseded by failure handling");
        std::vector<std::size_t> all(steps->size());
        std::iota(all.begin(), all.end(), 0);
        rollback_steps(
            steps, std::move(all),
            [cb = std::move(cb)]() mutable {
              cb(Status{ErrorCode::kConflict,
                        "controller: connection failed before the roll; "
                        "restoration owns recovery"});
            },
            roll_span);
        return;
      }
      const WavelengthPlan old_plan = c->plan;
      c->plan = new_plan;
      ++c->rolls;
      c->roll_hit_total += kRollHit;
      ++stats_.rolls_ok;
      if (telemetry::Telemetry* t = model_->telemetry()) {
        // The roll itself: the sub-second traffic hit, recorded in
        // hindsight now that the receive side has selected the new path.
        t->span_record("roll", "controller", 0, c->op_span,
                       t->now() - kRollHit, t->now());
        metrics_.roll_hit_seconds.in(t->metrics())
            .observe(to_seconds(kRollHit));
      }
      // Re-patch the FXCs to the new OTs (hitless, signal already rolled),
      // then release the old path.
      auto post = std::make_shared<StepList>();
      auto* fxc_client = &model_->fxc_ems_client();
      auto repatch = [&](NodeId pop, MuxponderId site, std::size_t nte_port,
                         TransponderId new_ot) {
        fxc::Fxc& f = model_->fxc_at(pop);
        const auto access = f.port_for(fxc::Wiring::Kind::kCustomerAccess,
                                       site.value(), nte_port);
        const auto otp = f.port_for(fxc::Wiring::Kind::kTransponderClient,
                                    new_ot.value(), 0);
        assert(access && otp);
        post->push_back(Step{fxc_client,
                             proto::FxcDisconnect{f.id(), *access},
                             std::nullopt});
        post->push_back(Step{fxc_client,
                             proto::FxcConnect{f.id(), *access, *otp},
                             std::nullopt});
      };
      if (old_plan.src_ot != new_plan.src_ot)
        repatch(c->src_pop, c->src_site, c->src_nte_port, new_plan.src_ot);
      if (old_plan.dst_ot != new_plan.dst_ot)
        repatch(c->dst_pop, c->dst_site, c->dst_nte_port, new_plan.dst_ot);
      // Teardown deps are indices within their own list; the repatch steps
      // above shift them, so rebase instead of splicing raw.
      const std::size_t tear_base = post->size();
      append_steps(*post, build_wavelength_teardown(old_plan));
      // Old endpoint optics the new plan no longer uses go back to idle,
      // not just dark: a completed roll must leave no tuned-but-unowned
      // residue for resync to sweep. Deactivate steps sit first in the
      // teardown (tear_base + 0 / + 1).
      auto* roadm = &model_->roadm_ems_client();
      if (old_plan.src_ot != new_plan.src_ot)
        post->push_back(Step{roadm,
                             proto::OtSetState{old_plan.src_ot,
                                               proto::OtSetState::Action::kReset},
                             std::nullopt, {tear_base}});
      if (old_plan.dst_ot != new_plan.dst_ot)
        post->push_back(Step{roadm,
                             proto::OtSetState{old_plan.dst_ot,
                                               proto::OtSetState::Action::kReset},
                             std::nullopt, {tear_base + 1}});
      std::uint64_t repatch_span = 0;
      if (telemetry::Telemetry* t = model_->telemetry())
        repatch_span =
            t->span_start("repatch_teardown", "controller", 0, c->op_span);
      run_steps(post, true, [this, id, repatch_span, roll_span,
                             cb = std::move(cb)](
                                Status, std::vector<std::size_t>) mutable {
        Connection* c = find_conn(id);
        if (c != nullptr && c->state == ConnectionState::kRolling)
          set_state(*c, ConnectionState::kActive);
        if (telemetry::Telemetry* t = model_->telemetry()) {
          t->span_end(repatch_span);
          t->span_end(roll_span);
          if (c != nullptr && c->op_span == roll_span) c->op_span = 0;
          metrics_.rolls_ok.in(t->metrics()).inc();
          t->event(telemetry::Severity::kInfo, "lifecycle", "controller",
                   "connection " + std::to_string(id.value()) +
                       " rolled onto its new path",
                   telemetry_tag(id));
        }
        // The old path's release is a capacity-freeing event (reopt moves
        // drain fragmented spectrum a backlogged restoration may need).
        kick_restoration_backlog();
        cb(Status::success());
      },
      repatch_span);
    });
  },
  bridge_span);
}

void GriphonController::bridge_and_roll(ConnectionId id,
                                        const Exclusions& avoid,
                                        DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Status{ErrorCode::kNotFound, "controller: unknown connection"});
    return;
  }
  if (c->kind != ConnectionKind::kWavelength) {
    cb(Status{ErrorCode::kInvalidArgument,
              "controller: bridge-and-roll applies to wavelength services"});
    return;
  }
  if (!c->is_up()) {
    cb(Status{ErrorCode::kConflict, "controller: connection not active"});
    return;
  }
  model_->engine().schedule(kPathComputation, [this, id, avoid,
                                               cb = std::move(cb)]() mutable {
    Connection* c = find_conn(id);
    if (c == nullptr || !c->is_up()) {
      cb(Status{ErrorCode::kConflict, "controller: connection went away"});
      return;
    }
    // The bridge must be resource-disjoint from the in-service path (paper
    // §2.2 constraint) — including conduit-mates of its links (SRLG) —
    // plus whatever the caller wants avoided.
    Exclusions full = avoid;
    for (const LinkId l : c->plan.path.links)
      for (const LinkId sibling : model_->graph().srlg_siblings(l))
        full.links.insert(sibling);
    auto plan = rwa_.plan(c->src_pop, c->dst_pop, c->rate, full);
    if (!plan.ok()) {
      ++stats_.rolls_failed;
      cb(plan.error());
      return;
    }
    roll_to_plan(id, std::move(plan).value(), std::move(cb));
  });
}

void GriphonController::roll_to(ConnectionId id, const WavelengthPlan& new_plan,
                                DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr) {
    cb(Status{ErrorCode::kNotFound, "controller: unknown connection"});
    return;
  }
  if (c->kind != ConnectionKind::kWavelength) {
    cb(Status{ErrorCode::kInvalidArgument,
              "controller: roll_to applies to wavelength services"});
    return;
  }
  // Stricter than is_up(): a connection already mid-roll cannot take a
  // second overlapping roll.
  if (c->state != ConnectionState::kActive) {
    cb(Status{ErrorCode::kConflict, "controller: connection not active"});
    return;
  }
  if (new_plan.path.nodes.empty() || new_plan.path.nodes.front() != c->src_pop ||
      new_plan.path.nodes.back() != c->dst_pop) {
    cb(Status{ErrorCode::kInvalidArgument,
              "controller: plan endpoints do not match connection"});
    return;
  }
  if (new_plan.segments.empty()) {
    cb(Status{ErrorCode::kInvalidArgument, "controller: plan has no segments"});
    return;
  }
  // Both paths are lit simultaneously while the bridge stands, so the new
  // plan may not reuse any (link, channel) cell of the current one.
  std::set<std::pair<std::uint64_t, dwdm::ChannelIndex>> lit;
  for (const SegmentPlan& seg : c->plan.segments)
    for (std::size_t i = seg.first_link; i <= seg.last_link; ++i)
      lit.emplace(c->plan.path.links[i].value(), seg.channel);
  for (const SegmentPlan& seg : new_plan.segments) {
    for (std::size_t i = seg.first_link; i <= seg.last_link; ++i) {
      if (lit.count({new_plan.path.links[i].value(), seg.channel}) != 0) {
        cb(Status{ErrorCode::kConflict,
                  "controller: plan shares a lit (link, channel) cell with "
                  "the in-service path"});
        return;
      }
    }
  }
  roll_to_plan(id, new_plan, std::move(cb));
}

std::vector<ConnectionId> GriphonController::live_wavelength_connections()
    const {
  std::vector<ConnectionId> out;
  for (const ConnectionId id : live_) {
    const Connection& c = connection(id);
    if (c.kind == ConnectionKind::kWavelength && c.is_up()) out.push_back(id);
  }
  return out;  // live_ is an ordered set, so ids are ascending
}

void GriphonController::prepare_maintenance(LinkId link, DoneCallback cb) {
  std::vector<ConnectionId> to_roll;
  for (const ConnectionId id : live_) {
    const Connection& c = conn(id);
    if (c.kind != ConnectionKind::kWavelength || !c.is_up()) continue;
    if (c.plan.path.uses_link(link)) to_roll.push_back(id);
  }
  // Protected OTN circuits riding the span move to their backups
  // proactively (done by the switches on command, small hit).
  if (model_->config().with_otn) {
    for (const OduCircuitId odu : model_->otn().circuit_ids()) {
      const auto& circuit = model_->otn().circuit(odu);
      if (circuit.state != otn::OduCircuit::State::kActive ||
          !circuit.is_protected)
        continue;
      const bool on_span = std::any_of(
          circuit.primary.begin(), circuit.primary.end(), [&](CarrierId cid) {
            return model_->otn().carrier(cid).rides_link(link);
          });
      if (on_span) (void)model_->otn().preemptive_switch(odu);
    }
  }
  if (to_roll.empty()) {
    cb(Status::success());
    return;
  }
  auto remaining = std::make_shared<std::size_t>(to_roll.size());
  auto first_error = std::make_shared<Status>(Status::success());
  for (const ConnectionId id : to_roll) {
    Exclusions avoid;
    avoid.links.insert(link);
    bridge_and_roll(id, avoid,
                    [remaining, first_error, cb](Status s) {
                      if (!s.ok() && first_error->ok()) *first_error = s;
                      if (--*remaining == 0) cb(*first_error);
                    });
  }
}

void GriphonController::regroom(ConnectionId id, DoneCallback cb) {
  Connection* c = find_conn(id);
  if (c == nullptr || c->kind != ConnectionKind::kWavelength || !c->is_up()) {
    cb(Status{ErrorCode::kConflict, "controller: not re-groomable"});
    return;
  }
  // Would a fresh plan (ignoring the current one) be shorter? The bridge
  // must still be resource-disjoint, so exclude the current links.
  Exclusions avoid;
  for (const LinkId l : c->plan.path.links) avoid.links.insert(l);
  auto candidate = rwa_.plan(c->src_pop, c->dst_pop, c->rate, avoid);
  if (!candidate.ok()) {
    cb(Status{ErrorCode::kUnreachable,
              "controller: no disjoint alternative path"});
    return;
  }
  const auto& g = model_->graph();
  if (candidate.value().path.length(g) >= c->plan.path.length(g)) {
    cb(Status::success());  // current path already best; nothing to do
    return;
  }
  roll_to_plan(id, std::move(candidate).value(), std::move(cb));
}

// --------------------------------------------------------------------------
// Reconciliation (post-EMS-restart audit)
// --------------------------------------------------------------------------
//
// Device configuration is modelled as a set of canonical string keys — one
// per stateful command effect. The same key function is applied to the
// setup command lists a live connection *would* issue today (expected) and
// to the actual device state (present). present − expected is a leak:
// configuration with no owner, released via best-effort commands.
// expected − present is drift: an owned connection missing configuration,
// repaired by re-issuing the missing setup commands in setup order.

namespace {

std::string express_key(RoadmId r, std::int32_t ch, std::int32_t a,
                        std::int32_t b) {
  if (a > b) std::swap(a, b);
  return "rx/" + std::to_string(r.value()) + "/" + std::to_string(ch) + "/" +
         std::to_string(a) + "/" + std::to_string(b);
}
std::string add_drop_key(RoadmId r, PortId p, std::int32_t degree,
                         std::int32_t ch) {
  return "rad/" + std::to_string(r.value()) + "/" + std::to_string(p.value()) +
         "/" + std::to_string(degree) + "/" + std::to_string(ch);
}
// Tuned and active are separate keys so a half-built OT (tuned, never
// activated) still reads as drifted against an expected kActivate.
std::string ot_tuned_key(TransponderId t) {
  return "ot/" + std::to_string(t.value()) + "/t";
}
std::string ot_active_key(TransponderId t) {
  return "ot/" + std::to_string(t.value()) + "/a";
}
std::string regen_key(RegenId r) {
  return "regen/" + std::to_string(r.value());
}
std::string fxc_key(FxcId f, PortId a, PortId b) {
  if (b < a) std::swap(a, b);
  return "fxc/" + std::to_string(f.value()) + "/" + std::to_string(a.value()) +
         "/" + std::to_string(b.value());
}
std::string nte_key(MuxponderId n, std::uint32_t p) {
  return "nte/" + std::to_string(n.value()) + "/" + std::to_string(p);
}
std::string odu_key(OduCircuitId c) {
  return "odu/" + std::to_string(c.value());
}

/// Keys a setup-direction command contributes to expected configuration.
/// Release-direction and stateless (PowerBalance) commands contribute none.
struct ConfigKeyVisitor {
  std::set<std::string>& out;
  void operator()(const proto::RoadmExpress& e) const {
    if (e.engage)
      out.insert(express_key(e.roadm, e.channel, e.degree_in, e.degree_out));
  }
  void operator()(const proto::RoadmAddDrop& a) const {
    if (a.engage)
      out.insert(add_drop_key(a.roadm, a.port, a.degree, a.channel));
  }
  void operator()(const proto::OtTune& t) const {
    out.insert(ot_tuned_key(t.ot));
  }
  void operator()(const proto::OtSetState& s) const {
    if (s.action == proto::OtSetState::Action::kActivate)
      out.insert(ot_active_key(s.ot));
  }
  void operator()(const proto::RegenEngage& r) const {
    if (r.engage) out.insert(regen_key(r.regen));
  }
  void operator()(const proto::FxcConnect& f) const {
    out.insert(fxc_key(f.fxc, f.port_a, f.port_b));
  }
  void operator()(const proto::NtePort& n) const {
    if (n.engage) out.insert(nte_key(n.nte, n.port));
  }
  template <typename T>
  void operator()(const T&) const {}
};

void append_config_keys(const proto::Message& m, std::set<std::string>& out) {
  std::visit(ConfigKeyVisitor{out}, m);
}

/// One piece of configuration a device holds: its canonical key, the
/// audit's leak counter for its kind and the command that releases it.
struct DeviceConfig {
  std::string key;
  std::size_t GriphonController::ResyncReport::*leaks;
  proto::RequestClient* client;
  proto::Message release;
  const dwdm::Transponder* ot = nullptr;  ///< set for a transponder
};

/// Every configured element of the plant, in a fixed order: per node its
/// ROADM uses and FXC cross-connects, then transponders that are not idle,
/// engaged regens, claimed NTE ports and (with OTN) ODU circuits.
template <typename Visit>
void walk_device_config(NetworkModel& model, Visit&& visit) {
  using Report = GriphonController::ResyncReport;
  auto* roadm = &model.roadm_ems_client();
  auto* fxc = &model.fxc_ems_client();
  for (const auto& node : model.graph().nodes()) {
    const dwdm::Roadm& r = model.roadm_at(node.id);
    for (const auto& u : r.uses()) {
      if (u.is_express) {
        if (u.degree > u.other_degree) continue;  // each pair once
        visit(DeviceConfig{
            express_key(r.id(), u.channel, u.degree, u.other_degree),
            &Report::leaked_roadm_uses, roadm,
            proto::RoadmExpress{r.id(), u.channel, u.degree, u.other_degree,
                                false}});
      } else {
        const auto& port = r.port(u.port);
        visit(DeviceConfig{
            add_drop_key(r.id(), u.port, port.degree, port.channel),
            &Report::leaked_roadm_uses, roadm,
            proto::RoadmAddDrop{r.id(), u.port, 0, 0, false}});
      }
    }
    const fxc::Fxc& f = model.fxc_at(node.id);
    for (const auto& [a, b] : f.cross_connects())
      visit(DeviceConfig{fxc_key(f.id(), a, b), &Report::leaked_fxc_connects,
                         fxc, proto::FxcDisconnect{f.id(), a}});
  }
  for (const auto& ot : model.ots())
    if (ot->state() != dwdm::Transponder::State::kIdle)
      visit(DeviceConfig{
          ot_tuned_key(ot->id()), &Report::leaked_ots, roadm,
          proto::OtSetState{ot->id(), proto::OtSetState::Action::kReset},
          ot.get()});
  for (const auto& rg : model.regens())
    if (rg->in_use())
      visit(DeviceConfig{regen_key(rg->id()), &Report::leaked_regens, roadm,
                         proto::RegenEngage{rg->id(), 0, 0, false}});
  for (const auto& site : model.customer_sites()) {
    const dwdm::Muxponder& mux = model.nte(site.nte);
    for (std::uint32_t p = 0; p < dwdm::Muxponder::kClientPorts; ++p)
      if (mux.port_in_use(p))
        visit(DeviceConfig{nte_key(site.nte, p), &Report::leaked_nte_ports,
                           &model.nte_ems_client(),
                           proto::NtePort{site.nte, p, false}});
  }
  if (model.config().with_otn) {
    for (const OduCircuitId cid : model.otn().circuit_ids()) {
      proto::OtnOp release;
      release.op = proto::OtnOp::Op::kRelease;
      release.circuit = cid;
      visit(DeviceConfig{odu_key(cid), &Report::leaked_otn_circuits,
                         &model.otn_ems_client(), release});
    }
  }
}

}  // namespace

bool GriphonController::quiescent() const {
  if (pending_commands_ != 0 || restorations_in_flight_ != 0 ||
      !restore_queue_.empty())
    return false;
  // A non-dormant backlog entry has a backoff timer armed: a restoration
  // could launch mid-audit. Dormant entries only wake on external events
  // the audit itself will not produce.
  for (const auto& [id, e] : restore_backlog_)
    if (!e.dormant) return false;
  return transitional_connections_ == 0;
}

void GriphonController::schedule_resync() {
  if (resync_scheduled_) return;
  resync_scheduled_ = true;
  resync_attempts_ = 0;
  // EMS-restart alarm -> reconciliation audit, after this settle delay.
  constexpr SimTime kResyncDelay = seconds(5);
  model_->engine().schedule(kResyncDelay, [this]() { try_auto_resync(); });
}

void GriphonController::try_auto_resync() {
  if (!quiescent()) {
    // Audit retry cadence while command trains are still in flight, and
    // how many times to re-check before giving up (the next restart alarm
    // re-arms it).
    constexpr SimTime kResyncRetry = seconds(5);
    constexpr int kResyncMaxDeferrals = 64;
    if (++resync_attempts_ < kResyncMaxDeferrals) {
      model_->engine().schedule(kResyncRetry, [this]() { try_auto_resync(); });
    } else {
      // Never went quiet; stand down. The next restart alarm re-arms us.
      resync_scheduled_ = false;
      if (telemetry::Telemetry* t = model_->telemetry())
        t->event(telemetry::Severity::kWarn, "resync", "controller",
                 "audit abandoned: control plane never quiesced");
    }
    return;
  }
  resync_scheduled_ = false;
  do_resync([](const ResyncReport&) {});
}

void GriphonController::resync(ResyncCallback cb) {
  if (!quiescent()) {
    cb(Error{ErrorCode::kBusy, "controller: command trains in flight"});
    return;
  }
  do_resync([cb = std::move(cb)](const ResyncReport& r) { cb(r); });
}

StepList GriphonController::expected_steps_for(
    const Connection& c) const {
  if (c.state != ConnectionState::kActive &&
      c.state != ConnectionState::kFailed)
    return {};
  // The ODU circuit of a sub-wavelength service is audited by id.
  if (c.kind != ConnectionKind::kWavelength)
    return c.odu.valid() ? build_access_setup(c) : StepList{};
  StepList steps = build_access_setup(c);
  // A failed restoration already released a deprovisioned path's devices;
  // only the access plumbing is still owned.
  if (!c.deprovisioned) {
    append_steps(steps, build_wavelength_setup(c.plan));
    if (c.standby) append_steps(steps, build_wavelength_setup(*c.standby));
  }
  return steps;
}

void GriphonController::do_resync(
    std::function<void(const ResyncReport&)> done) {
  ++stats_.resync_runs;
  auto report = std::make_shared<ResyncReport>();

  // Expected: the setup commands each live connection and groomed carrier
  // would issue today, plus the ODU circuits the connections own.
  std::vector<StepList> owned;
  std::set<std::string> expected;
  for (const ConnectionId id : live_) {
    const Connection& c = conn(id);
    owned.push_back(expected_steps_for(c));
    if (c.odu.valid() && (c.state == ConnectionState::kActive ||
                          c.state == ConnectionState::kFailed))
      expected.insert(odu_key(c.odu));
  }
  for (const auto& [carrier, plan] : groomed_plans_)
    owned.push_back(build_wavelength_setup(plan));
  for (const StepList& steps : owned)
    for (const Step& s : steps) append_config_keys(s.forward, expected);

  // Present: walk every device; anything configured but unowned is a leak
  // and gets a release command.
  std::set<std::string> present;
  auto repair = std::make_shared<StepList>();
  walk_device_config(*model_, [&](const DeviceConfig& d) {
    if (d.ot != nullptr) {
      if (d.ot->state() == dwdm::Transponder::State::kFailed) return;
      if (d.ot->state() == dwdm::Transponder::State::kActive)
        present.insert(ot_active_key(d.ot->id()));
    }
    present.insert(d.key);
    if (expected.contains(d.key)) return;
    ++((*report).*d.leaks);
    repair->push_back(Step{d.client, d.release, std::nullopt});
  });

  // Drift: owned configuration the devices no longer hold. Re-issue the
  // missing setup commands in setup order (per-device EMS queues keep a
  // same-port release-then-reconfigure sequence ordered).
  auto append_drift_repairs = [&](const StepList& steps) {
    bool drifted = false;
    for (const Step& s : steps) {
      std::set<std::string> keys;
      append_config_keys(s.forward, keys);
      if (keys.empty()) continue;
      const bool missing = std::any_of(
          keys.begin(), keys.end(),
          [&](const std::string& k) { return !present.contains(k); });
      if (!missing) continue;
      drifted = true;
      repair->push_back(Step{s.client, s.forward, std::nullopt});
    }
    return drifted;
  };
  for (const StepList& steps : owned)
    if (append_drift_repairs(steps)) ++report->drifted_connections;

  report->repair_commands = repair->size();
  stats_.resync_leaks += report->total_leaks();
  stats_.resync_drift += report->drifted_connections;
  if (telemetry::Telemetry* t = model_->telemetry()) {
    auto& m = t->metrics();
    metrics_.resync_runs.in(m).inc();
    metrics_.resync_leaks.in(m).inc(report->total_leaks());
    metrics_.resync_drift.in(m).inc(report->drifted_connections);
    metrics_.resync_repairs.in(m).inc(report->repair_commands);
    t->event(report->repair_commands == 0 ? telemetry::Severity::kInfo
                                          : telemetry::Severity::kWarn,
             "resync", "controller",
             "audit: leaks=" + std::to_string(report->total_leaks()) +
                 " drift=" + std::to_string(report->drifted_connections) +
                 " repairs=" + std::to_string(report->repair_commands));
  }
  if (repair->empty()) {
    done(*report);
    return;
  }
  run_steps(repair, /*best_effort=*/true,
            [report, done = std::move(done)](Status,
                                             std::vector<std::size_t>) {
              done(*report);
            });
}

std::string GriphonController::device_state_digest() const {
  // The reconciliation audit's device walk, with each transponder's key
  // carrying its tuned channel and state so a wrong wavelength or a
  // merely-tuned OT changes the digest. Keys are sorted, so the digest is
  // independent of command order — the property the seq/DAG equivalence
  // tests pin down.
  std::set<std::string> keys;
  walk_device_config(*model_, [&](const DeviceConfig& d) {
    keys.insert(d.ot == nullptr
                    ? d.key
                    : "ot/" + std::to_string(d.ot->id().value()) + "/ch" +
                          std::to_string(d.ot->channel()) + "/" +
                          to_string(d.ot->state()));
  });
  std::string digest;
  for (const std::string& k : keys) {
    digest += k;
    digest += '\n';
  }
  return digest;
}

}  // namespace griphon::core
