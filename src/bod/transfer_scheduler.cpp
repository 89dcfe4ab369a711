#include "bod/transfer_scheduler.hpp"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "dwdm/muxponder.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::bod {

namespace {

/// Access-pipe pseudo-links live far above any real LinkId so the two key
/// spaces can never collide in the calendar.
constexpr std::uint64_t kAccessLinkBase = std::uint64_t{1} << 40;

/// Why a submission was refused; indexes its `reason` label.
enum class Refusal : std::uint8_t {
  kNoPortal,
  kInvalid,
  kDeadline,
  kCapacity,
  kRateLimit,
  kQuota
};
constexpr const char* kRefusalReasons[] = {
    "no-portal", "invalid", "deadline", "capacity", "rate-limit", "quota"};

}  // namespace

TransferScheduler::TransferScheduler(core::GriphonController* controller,
                                     ReservationCalendar* calendar,
                                     AdmissionController* admission,
                                     Params params)
    : controller_(controller),
      engine_(&controller->model().engine()),
      calendar_(calendar),
      admission_(admission),
      params_(std::move(params)) {
  controller_->set_topology_observer(
      [this](const std::vector<LinkId>& links, bool failed) {
        on_topology_change(links, failed);
      });
  controller_->set_preemption_hook(
      [this](NodeId src, NodeId dst, DataRate rate,
             const std::set<LinkId>& avoid) {
        return preempt_for_restoration(src, dst, rate, avoid);
      });
}

void TransferScheduler::register_portal(core::CustomerPortal* portal) {
  portals_[portal->customer()] = portal;
}

core::CustomerPortal* TransferScheduler::portal_of(CustomerId customer) const {
  const auto it = portals_.find(customer);
  return it == portals_.end() ? nullptr : it->second;
}

void TransferScheduler::count(telemetry::KeyedCounters& family,
                              CustomerId customer) {
  if (telemetry::Telemetry* t = controller_->model().telemetry())
    family.in(t->metrics(), "customer", customer.value()).inc();
}

LinkId TransferScheduler::access_link(MuxponderId nte) {
  const LinkId pseudo{kAccessLinkBase + nte.value()};
  const dwdm::Muxponder& device = controller_->model().nte(nte);
  const DataRate hardware =
      device.client_rate() *
      static_cast<std::int64_t>(dwdm::Muxponder::kClientPorts);
  // Ports lit by traffic the calendar never saw — connections the operator
  // provisioned directly through the portal — shrink the pipe for the whole
  // horizon (they have no teardown date the scheduler could plan around).
  // The scheduler's own active pieces also hold ports, but those are still
  // reserved in the calendar; subtract them from the port count or they
  // would be charged twice.
  DataRate scheduler_owned{};
  for (const TransferId id : live_) {
    const Transfer& t = transfers_.at(id);
    if (t.src_site != nte && t.dst_site != nte) continue;
    for (const Piece& p : t.pieces)
      if (p.active && !p.done) scheduler_owned += p.rate;
  }
  DataRate foreign =
      device.client_rate() * static_cast<std::int64_t>(device.ports_in_use());
  foreign = foreign > scheduler_owned ? foreign - scheduler_owned : DataRate{};
  calendar_->set_link_capacity(
      pseudo, hardware > foreign ? hardware - foreign : DataRate{});
  return pseudo;
}

Result<TransferScheduler::PiecePlan> TransferScheduler::plan_piece(
    NodeId src_pop, NodeId dst_pop, std::int64_t bytes, SimTime not_before,
    const std::vector<LinkId>& access_links,
    const core::Exclusions& exclude) const {
  const auto& routes =
      controller_->rwa().candidate_routes(src_pop, dst_pop, exclude);
  if (routes.empty())
    return Error{ErrorCode::kUnreachable,
                 "scheduler: no route between the sites"};

  // Search routes x the rate ladder for the earliest *completion*. A higher
  // rate needs a shorter window but more headroom; on a contended calendar
  // the winner is often a mid-ladder rate squeezed into a near gap rather
  // than the top rate waiting for a wide one. Only a window ending strictly
  // before the current best can replace it, so each search is bounded by
  // the best end found so far.
  bool found = false;
  PiecePlan chosen;
  for (const auto& route : routes) {
    std::vector<LinkId> links = route.links;
    links.insert(links.end(), access_links.begin(), access_links.end());
    for (const DataRate rate : params_.rate_ladder) {
      const SimTime duration = params_.setup_pad + transfer_time(bytes, rate);
      auto window = calendar_->earliest_feasible(
          links, rate, duration, not_before,
          found ? chosen.window.end : SimTime::max());
      if (!window.ok()) continue;
      chosen = PiecePlan{links, rate, window.value()};
      found = true;
    }
  }
  if (!found)
    return Error{ErrorCode::kResourceExhausted,
                 "scheduler: no calendar window fits this transfer on any "
                 "route within the horizon"};
  return chosen;
}

Result<TransferId> TransferScheduler::submit(const TransferRequest& request) {
  ++stats_.submitted;
  count(metrics_.submitted, request.customer);

  const auto reject = [&](Error error, Refusal why) -> Error {
    ++stats_.rejected;
    if (telemetry::Telemetry* t = controller_->model().telemetry()) {
      const auto reason = static_cast<std::size_t>(why);
      metrics_.rejected
          .in(t->metrics(),
              request.customer.value() * std::size(kRefusalReasons) + reason,
              [&] {
                return telemetry::Labels{
                    {"customer", std::to_string(request.customer.value())},
                    {"reason", kRefusalReasons[reason]}};
              })
          .inc();
    }
    return error;
  };

  core::CustomerPortal* portal = portal_of(request.customer);
  if (portal == nullptr)
    return reject(Error{ErrorCode::kPermissionDenied,
                        "scheduler: customer has no registered portal"},
                  Refusal::kNoPortal);
  if (request.bytes <= 0 || request.deadline <= engine_->now())
    return reject(Error{ErrorCode::kInvalidArgument,
                        "scheduler: need positive volume and a future "
                        "deadline"},
                  Refusal::kInvalid);
  const auto* src = controller_->model().site_by_nte(request.src_site);
  const auto* dst = controller_->model().site_by_nte(request.dst_site);
  if (src == nullptr || dst == nullptr)
    return reject(
        Error{ErrorCode::kInvalidArgument, "scheduler: unknown site"},
        Refusal::kInvalid);

  const SimTime now = engine_->now();
  const std::vector<LinkId> access = {access_link(request.src_site),
                                      access_link(request.dst_site)};

  // Plan greedily: one piece for the whole volume; if that misses the
  // deadline, split the bytes over more pieces (each planned against a
  // calendar that already holds the previous pieces' reservations, so the
  // pieces land in genuinely distinct windows/routes).
  std::vector<Piece> pieces;
  auto roll_back = [&] {
    for (Piece& p : pieces) {
      (void)calendar_->release(p.reservation);
    }
    pieces.clear();
  };
  std::string last_error;
  SimTime best_single_end{};
  bool fully_planned = false;
  for (int n = 1; n <= std::max(1, params_.max_pieces); ++n) {
    roll_back();
    const std::int64_t share = request.bytes / n;
    bool planned = true;
    SimTime latest_end{};
    for (int i = 0; i < n && planned; ++i) {
      const std::int64_t piece_bytes =
          i == n - 1 ? request.bytes - share * (n - 1) : share;
      auto plan = plan_piece(src->core_pop, dst->core_pop, piece_bytes, now,
                             access, core::Exclusions{});
      if (!plan.ok()) {
        last_error = plan.error().message();
        planned = false;
        break;
      }
      auto resv = calendar_->reserve(request.customer, plan.value().links,
                                     plan.value().rate, plan.value().window);
      if (!resv.ok()) {
        last_error = resv.error().message();
        planned = false;
        break;
      }
      Piece p;
      p.reservation = resv.value();
      p.route_links = plan.value().links;
      p.rate = plan.value().rate;
      p.window = plan.value().window;
      p.bytes = piece_bytes;
      pieces.push_back(std::move(p));
      latest_end = std::max(latest_end, plan.value().window.end);
    }
    if (!planned) continue;
    if (n == 1) best_single_end = latest_end;
    if (latest_end <= request.deadline) {
      fully_planned = true;  // this plan meets the deadline
      break;
    }
    if (n == std::max(1, params_.max_pieces)) {
      roll_back();
      std::string msg =
          "scheduler: no schedule meets the deadline; earliest achievable "
          "completion is ";
      msg += std::to_string(to_seconds(
                 best_single_end > SimTime{} ? best_single_end : latest_end)) +
             "s";
      return reject(Error{ErrorCode::kResourceExhausted, std::move(msg)},
                    Refusal::kDeadline);
    }
  }
  if (!fully_planned) {
    // The final split attempt may have reserved some pieces before a later
    // one failed to plan; accepting that remainder would move only part of
    // the bytes while reporting the transfer complete.
    roll_back();
    if (last_error.empty())
      last_error = "scheduler: could not plan the transfer";
    return reject(Error{ErrorCode::kResourceExhausted, last_error},
                  Refusal::kCapacity);
  }

  // Admission: the customer commits the sum of its piece rates (worst-case
  // concurrency) against its per-class quota share.
  DataRate total{};
  for (const Piece& p : pieces) total += p.rate;
  if (Status admitted = admission_->admit(
          {request.customer, total, request.priority});
      !admitted.ok()) {
    roll_back();
    return reject(admitted.error(), admitted.error().code() == ErrorCode::kBusy
                                        ? Refusal::kRateLimit
                                        : Refusal::kQuota);
  }
  for (const Piece& p : pieces) admission_->commit(request.customer, p.rate);

  Transfer t;
  t.id = ids_.next();
  t.customer = request.customer;
  t.src_site = request.src_site;
  t.dst_site = request.dst_site;
  t.bytes = request.bytes;
  t.deadline = request.deadline;
  t.priority = request.priority;
  t.pieces = std::move(pieces);
  const TransferId id = t.id;
  if (t.pieces.size() > 1) {
    ++stats_.splits;
    count(metrics_.splits, t.customer);
  }
  transfers_[id] = std::move(t);
  live_.insert(id);
  for (std::size_t i = 0; i < transfers_[id].pieces.size(); ++i)
    schedule_setup(id, i);

  ++stats_.accepted;
  count(metrics_.accepted, request.customer);
  return id;
}

void TransferScheduler::schedule_setup(TransferId id,
                                       std::size_t piece_index) {
  Transfer& t = transfers_.at(id);
  Piece& p = t.pieces[piece_index];
  const SimTime at = std::max(engine_->now(), p.window.start);
  p.setup_event = engine_->schedule_at(
      at, [this, id, piece_index] { start_setup(id, piece_index); });
}

void TransferScheduler::start_setup(TransferId id, std::size_t piece_index) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;  // cancelled meanwhile
  Transfer& t = it->second;
  if (t.state != TransferState::kScheduled &&
      t.state != TransferState::kActive)
    return;
  Piece& p = t.pieces[piece_index];
  if (p.done || p.active) return;
  core::CustomerPortal* portal = portal_of(t.customer);
  if (portal == nullptr) {
    fail_transfer(t, "portal vanished");
    return;
  }
  const int epoch = p.setup_epoch;
  portal->connect_bundle(t.src_site, t.dst_site, p.rate,
                         core::ProtectionMode::kRestorable,
                         [this, id, piece_index, epoch](Result<core::BundleId> r) {
                           on_setup_result(id, piece_index, epoch,
                                           std::move(r));
                         });
}

void TransferScheduler::on_setup_result(TransferId id,
                                        std::size_t piece_index, int epoch,
                                        Result<core::BundleId> result) {
  // A setup that raced a cancel/fail/reschedule may still have created a
  // bundle; nothing in the current plan owns it, so tear it down here or
  // its NTE ports and wavelengths leak for good.
  const auto orphan = [&](CustomerId customer) {
    if (!result.ok()) return;
    if (core::CustomerPortal* portal = portal_of(customer))
      portal->disconnect_bundle(result.value(), [](Status) {});
  };
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (t.state == TransferState::kFailed ||
      t.state == TransferState::kCancelled) {
    orphan(t.customer);
    return;
  }
  Piece& p = t.pieces[piece_index];
  if (epoch != p.setup_epoch || p.done || p.active) {
    orphan(t.customer);
    return;
  }

  if (result.ok()) {
    p.bundle = result.value();
    p.active = true;
    t.state = TransferState::kActive;
    // Bandwidth is live; the last byte lands one transfer-time from now.
    const SimTime done_at = engine_->now() + transfer_time(p.bytes, p.rate);
    engine_->schedule_at(
        done_at, [this, id, piece_index] { finish_piece(id, piece_index); });
    return;
  }

  // Deferrals one piece may take before a refusal counts as a failure.
  constexpr int kMaxUnavailableDefers = 20;
  if (result.error().code() == ErrorCode::kUnavailable &&
      p.defers < kMaxUnavailableDefers) {
    // The controller shed the setup because an EMS circuit breaker is
    // open: the command path is down, not this piece. Park it without
    // consuming a retry and come back once the breaker has had a chance
    // to half-open.
    ++p.defers;
    ++stats_.setups_deferred;
    count(metrics_.deferrals, t.customer);
    engine_->schedule(params_.unavailable_defer,
                      [this, id, piece_index, epoch] {
                        const auto it2 = transfers_.find(id);
                        if (it2 == transfers_.end()) return;
                        if (it2->second.pieces[piece_index].setup_epoch !=
                            epoch)
                          return;
                        start_setup(id, piece_index);
                      });
    return;
  }

  // Retries of a failed bundle setup; retry n waits n x the base delay.
  constexpr int kMaxSetupRetries = 3;
  constexpr SimTime kRetryBackoff = seconds(30);
  ++p.attempts;
  if (p.attempts <= kMaxSetupRetries) {
    // Transient setup failure: back off linearly and retry inside the
    // reserved window (the setup_pad exists to absorb exactly this).
    ++stats_.setup_retries;
    count(metrics_.retries, t.customer);
    engine_->schedule(kRetryBackoff * p.attempts,
                      [this, id, piece_index, epoch] {
                        const auto it2 = transfers_.find(id);
                        if (it2 == transfers_.end()) return;
                        // A reschedule meanwhile moved the piece to a new
                        // window; retrying now would light capacity outside
                        // the reservation.
                        if (it2->second.pieces[piece_index].setup_epoch !=
                            epoch)
                          return;
                        start_setup(id, piece_index);
                      });
    return;
  }
  // Retries exhausted — the window is burnt; re-plan the piece from now.
  reschedule_piece(id, piece_index);
}

void TransferScheduler::finish_piece(TransferId id, std::size_t piece_index) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  Transfer& t = it->second;
  if (t.state != TransferState::kActive) return;
  Piece& p = t.pieces[piece_index];
  if (p.done || !p.active) return;

  core::CustomerPortal* portal = portal_of(t.customer);
  if (portal != nullptr)
    portal->disconnect_bundle(p.bundle, [](Status) {});
  // The transfer finished early relative to its padded window: hand the
  // tail of the reservation back to the calendar.
  (void)calendar_->truncate(p.reservation, engine_->now());
  (void)calendar_->release(p.reservation);
  admission_->release(t.customer, p.rate);
  p.active = false;
  p.done = true;

  if (!std::all_of(t.pieces.begin(), t.pieces.end(),
                   [](const Piece& q) { return q.done; }))
    return;
  t.state = TransferState::kCompleted;
  live_.erase(id);
  t.completed_at = engine_->now();
  ++stats_.completed;
  count(metrics_.completed, t.customer);
  if (t.completed_at <= t.deadline) {
    ++stats_.deadline_met;
    count(metrics_.deadlines_met, t.customer);
  } else {
    ++stats_.deadline_missed;
    count(metrics_.deadlines_missed, t.customer);
  }
}

void TransferScheduler::reschedule_piece(TransferId id,
                                         std::size_t piece_index) {
  Transfer& t = transfers_.at(id);
  Piece& p = t.pieces[piece_index];
  if (p.done || p.active) return;  // live pieces ride controller restoration

  // Invalidate any in-flight setup callback or pending retry timer for the
  // old window/route before re-planning.
  ++p.setup_epoch;
  engine_->cancel(p.setup_event);
  (void)calendar_->release(p.reservation);
  admission_->release(t.customer, p.rate);

  const auto* src = controller_->model().site_by_nte(t.src_site);
  const auto* dst = controller_->model().site_by_nte(t.dst_site);
  const std::vector<LinkId> access = {access_link(t.src_site),
                                      access_link(t.dst_site)};
  auto plan = src != nullptr && dst != nullptr
                  ? plan_piece(src->core_pop, dst->core_pop, p.bytes,
                               engine_->now(), access, core::Exclusions{})
                  : Result<PiecePlan>{Error{ErrorCode::kInvalidArgument,
                                            "scheduler: unknown site"}};
  if (!plan.ok()) {
    fail_transfer(t, plan.error().message());
    return;
  }
  if (plan.value().window.end > t.deadline) {
    // A re-planned window past the deadline is a broken promise, not a
    // schedule — and failing here also bounds the retry/re-plan cycle:
    // every re-plan starts at now(), so windows only march forward.
    fail_transfer(t, "re-planned completion " +
                         std::to_string(to_seconds(plan.value().window.end)) +
                         "s misses the deadline");
    return;
  }
  auto resv = calendar_->reserve(t.customer, plan.value().links,
                                 plan.value().rate, plan.value().window);
  if (!resv.ok()) {
    fail_transfer(t, resv.error().message());
    return;
  }
  p.reservation = resv.value();
  p.route_links = plan.value().links;
  p.rate = plan.value().rate;
  p.window = plan.value().window;
  p.attempts = 0;
  admission_->commit(t.customer, p.rate);
  ++t.reschedules;
  ++stats_.reschedules;
  count(metrics_.reschedules, t.customer);
  schedule_setup(id, piece_index);
}

void TransferScheduler::release_piece_resources(Transfer& t, Piece& p) {
  if (p.done) return;
  engine_->cancel(p.setup_event);
  if (p.active) {
    if (core::CustomerPortal* portal = portal_of(t.customer))
      portal->disconnect_bundle(p.bundle, [](Status) {});
    p.active = false;
  }
  (void)calendar_->release(p.reservation);
  admission_->release(t.customer, p.rate);
  p.done = true;
}

void TransferScheduler::fail_transfer(Transfer& t, const std::string& why) {
  for (Piece& p : t.pieces) release_piece_resources(t, p);
  t.state = TransferState::kFailed;
  live_.erase(t.id);
  ++stats_.failed;
  count(metrics_.failed, t.customer);
  if (telemetry::Telemetry* tel = controller_->model().telemetry())
    tel->event(telemetry::Severity::kWarn, "bod", "transfer-scheduler",
               "transfer " + std::to_string(t.id.value()) + " failed: " + why);
}

void TransferScheduler::on_topology_change(const std::vector<LinkId>& links,
                                           bool failed) {
  if (!failed) return;  // repairs only widen future choice; nothing to fix
  // Re-plan every scheduled (not yet live) piece whose reserved route just
  // lost a link: its window is a promise the network can no longer keep.
  // Live pieces stay put — the controller's restoration path moves them.
  std::vector<std::pair<TransferId, std::size_t>> hit;
  for (const TransferId id : live_) {
    const Transfer& t = transfers_.at(id);
    for (std::size_t i = 0; i < t.pieces.size(); ++i) {
      const Piece& p = t.pieces[i];
      if (p.done || p.active) continue;
      const bool uses_failed =
          std::any_of(p.route_links.begin(), p.route_links.end(),
                      [&links](LinkId l) {
                        return std::find(links.begin(), links.end(), l) !=
                               links.end();
                      });
      if (uses_failed) hit.emplace_back(id, i);
    }
  }
  for (const auto& [id, index] : hit) {
    // A prior reschedule may have failed the whole transfer meanwhile.
    if (live_.contains(id)) reschedule_piece(id, index);
  }
}

Result<TransferScheduler::TransferStatus> TransferScheduler::inspect(
    CustomerId caller, TransferId id) const {
  const auto it = transfers_.find(id);
  if (it == transfers_.end())
    return Error{ErrorCode::kNotFound, "scheduler: unknown transfer"};
  const Transfer& t = it->second;
  if (t.customer != caller)
    return Error{ErrorCode::kPermissionDenied,
                 "scheduler: transfer belongs to another customer"};
  TransferStatus s;
  s.id = t.id;
  s.state = t.state;
  s.bytes = t.bytes;
  s.deadline = t.deadline;
  s.pieces = static_cast<int>(t.pieces.size());
  s.reschedules = t.reschedules;
  for (const Piece& p : t.pieces)
    if (p.active && !p.done) s.live_bundles.push_back(p.bundle);
  if (t.state == TransferState::kCompleted) {
    s.expected_completion = t.completed_at;
  } else {
    for (const Piece& p : t.pieces)
      s.expected_completion = std::max(s.expected_completion, p.window.end);
  }
  s.detail = to_string(t.state);
  return s;
}

Status TransferScheduler::cancel(CustomerId caller, TransferId id) {
  const auto it = transfers_.find(id);
  if (it == transfers_.end())
    return Status{ErrorCode::kNotFound, "scheduler: unknown transfer"};
  Transfer& t = it->second;
  if (t.customer != caller)
    return Status{ErrorCode::kPermissionDenied,
                  "scheduler: transfer belongs to another customer"};
  if (t.state == TransferState::kCompleted ||
      t.state == TransferState::kFailed ||
      t.state == TransferState::kCancelled)
    return Status{ErrorCode::kInvalidArgument,
                  "scheduler: transfer already finished"};
  for (Piece& p : t.pieces) release_piece_resources(t, p);
  t.state = TransferState::kCancelled;
  live_.erase(id);
  return Status::success();
}

std::size_t TransferScheduler::preempt_for_restoration(
    NodeId src, NodeId dst, DataRate rate, const std::set<LinkId>& avoid) {
  // Links any of the restoration's candidate routes could use. A preempted
  // window only helps if its lit channels sit on one of these.
  core::Exclusions exclude;
  exclude.links = avoid;
  std::set<LinkId> useful;
  for (const auto& route : controller_->rwa().candidate_routes(src, dst,
                                                               exclude))
    useful.insert(route.links.begin(), route.links.end());
  if (useful.empty()) return 0;

  std::size_t preempted = 0;
  DataRate freed{};
  // reschedule_piece may fail the transfer and drop it from live_, so step
  // the iterator before the body runs.
  for (auto next = live_.begin(); next != live_.end() && freed < rate;) {
    const TransferId id = *next++;
    Transfer& t = transfers_.at(id);
    if (t.priority != Priority::kBestEffortBulk) continue;
    core::CustomerPortal* portal = portal_of(t.customer);
    if (portal == nullptr) continue;
    for (std::size_t i = 0; i < t.pieces.size(); ++i) {
      if (freed >= rate) break;
      Piece& p = t.pieces[i];
      // Only live pieces hold lit spectrum; scheduled windows are calendar
      // promises, not channels — preempting them frees nothing today.
      if (p.done || !p.active || !p.bundle.valid()) continue;
      // The piece's actual lit plant is its bundle's connection plans, not
      // the calendar route (RWA may have packed them differently).
      bool intersects = false;
      for (const ConnectionId cid : portal->bundle(p.bundle).parts) {
        const core::Connection* c = controller_->find_connection(cid);
        if (c == nullptr || c->kind != core::ConnectionKind::kWavelength)
          continue;
        for (const LinkId l : c->plan.path.links)
          if (useful.contains(l)) {
            intersects = true;
            break;
          }
        if (intersects) break;
      }
      if (!intersects) continue;
      // Tear the live bundle down (channels free as the teardown trains
      // complete, each release kicking the restoration backlog), then
      // re-plan the piece from now — reschedule_piece fails the transfer
      // loudly when the re-planned window cannot meet the deadline.
      ++p.setup_epoch;
      engine_->cancel(p.setup_event);
      portal->disconnect_bundle(p.bundle, [](Status) {});
      p.bundle = core::BundleId{};
      p.active = false;
      freed += p.rate;
      ++preempted;
      ++stats_.preempted;
      count(metrics_.preempted, t.customer);
      if (telemetry::Telemetry* tel = controller_->model().telemetry())
        tel->event(telemetry::Severity::kWarn, "bod", "transfer-scheduler",
                   "transfer " + std::to_string(id.value()) + " piece " +
                       std::to_string(i) + " preempted for gold restoration");
      if (t.state == TransferState::kActive) {
        const bool any_active = std::any_of(
            t.pieces.begin(), t.pieces.end(),
            [](const Piece& q) { return q.active; });
        if (!any_active) t.state = TransferState::kScheduled;
      }
      reschedule_piece(id, i);
      if (t.state == TransferState::kFailed) break;
    }
  }
  return preempted;
}

std::set<ConnectionId> TransferScheduler::migration_exempt_connections()
    const {
  std::set<ConnectionId> exempt;
  for (const TransferId id : live_) {
    const Transfer& t = transfers_.at(id);
    const core::CustomerPortal* portal = portal_of(t.customer);
    if (portal == nullptr) continue;
    for (const Piece& p : t.pieces) {
      if (!p.active || p.done || !p.bundle.valid()) continue;
      for (const ConnectionId c : portal->bundle(p.bundle).parts)
        exempt.insert(c);
    }
  }
  return exempt;
}

std::string TransferScheduler::render() const {
  std::ostringstream os;
  os << "+-----+----------+-----------+------------+------------+--------+\n"
     << "| id  | customer | state     | volume     | deadline   | pieces |\n"
     << "+-----+----------+-----------+------------+------------+--------+\n";
  for (const auto& [id, t] : transfers_) {
    os << "| " << std::setw(3) << id.value() << " | " << std::setw(8)
       << t.customer.value() << " | " << std::setw(9) << to_string(t.state)
       << " | " << std::setw(7) << t.bytes / 1'000'000'000 << " GB | "
       << std::setw(9) << static_cast<std::int64_t>(to_seconds(t.deadline))
       << "s | " << std::setw(6) << t.pieces.size() << " |\n";
  }
  os << "+-----+----------+-----------+------------+------------+--------+\n";
  return os.str();
}

}  // namespace griphon::bod
