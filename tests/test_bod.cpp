// Tests for the BoD service layer: reservation calendar, admission
// control, deadline-driven transfer scheduling, and the customer-isolation
// error paths the carrier's multi-tenant story depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "bod/admission.hpp"
#include "bod/reservation_calendar.hpp"
#include "bod/transfer_scheduler.hpp"
#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "dwdm/muxponder.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/bod_demand.hpp"

namespace griphon::bod {
namespace {

const CustomerId kCspA{1};
const CustomerId kCspB{2};

ReservationCalendar::Params cal_params(DataRate capacity) {
  ReservationCalendar::Params p;
  p.slot = minutes(1);
  p.default_link_capacity = capacity;
  return p;
}

// --- ReservationCalendar ----------------------------------------------------

TEST(Calendar, ReserveCommitsEverySlotOnEveryLink) {
  ReservationCalendar cal(cal_params(rates::k40G));
  const std::vector<LinkId> route{LinkId{0}, LinkId{1}};
  const Window w{minutes(10), minutes(20)};
  const auto id = cal.reserve(kCspA, route, rates::k10G, w);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cal.committed(LinkId{0}, minutes(10)), rates::k10G);
  EXPECT_EQ(cal.committed(LinkId{1}, minutes(19)), rates::k10G);
  EXPECT_EQ(cal.committed(LinkId{0}, minutes(20)), DataRate{});  // half-open
  EXPECT_EQ(cal.committed(LinkId{0}, minutes(9)), DataRate{});
  ASSERT_TRUE(cal.release(id.value()).ok());
  EXPECT_EQ(cal.committed(LinkId{0}, minutes(15)), DataRate{});
  EXPECT_EQ(cal.active_reservations(), 0u);
}

TEST(Calendar, FeasibleRespectsCapacityBudget) {
  ReservationCalendar cal(cal_params(rates::k40G));
  const std::vector<LinkId> route{LinkId{3}};
  ASSERT_TRUE(
      cal.reserve(kCspA, route, DataRate::gbps(30), {minutes(0), minutes(30)})
          .ok());
  EXPECT_TRUE(cal.feasible(route, rates::k10G, {minutes(0), minutes(30)}));
  EXPECT_FALSE(
      cal.feasible(route, DataRate::gbps(20), {minutes(0), minutes(30)}));
  EXPECT_TRUE(
      cal.feasible(route, DataRate::gbps(20), {minutes(30), minutes(60)}));
}

TEST(Calendar, ConflictNamesEarliestFeasibleAlternative) {
  ReservationCalendar cal(cal_params(rates::k10G));
  const std::vector<LinkId> route{LinkId{7}};
  // Saturate [0, 60 min).
  ASSERT_TRUE(
      cal.reserve(kCspA, route, rates::k10G, {minutes(0), minutes(60)}).ok());
  // A conflicting request is rejected with kResourceExhausted and the
  // error names when the same request would fit.
  const auto conflicted =
      cal.reserve(kCspB, route, rates::k10G, {minutes(10), minutes(40)});
  ASSERT_FALSE(conflicted.ok());
  EXPECT_EQ(conflicted.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(conflicted.error().message().find("earliest feasible window"),
            std::string::npos);
  // The alternative is directly queryable — and is the first free slot.
  const auto alt =
      cal.earliest_feasible(route, rates::k10G, minutes(30), minutes(10));
  ASSERT_TRUE(alt.ok());
  EXPECT_EQ(alt.value().start, minutes(60));
  EXPECT_EQ(alt.value().end, minutes(90));
}

TEST(Calendar, EarliestFeasibleSkipsPastBlockedSlots) {
  ReservationCalendar cal(cal_params(rates::k10G));
  const std::vector<LinkId> route{LinkId{0}};
  ASSERT_TRUE(
      cal.reserve(kCspA, route, rates::k10G, {minutes(2), minutes(10)}).ok());
  ASSERT_TRUE(
      cal.reserve(kCspA, route, rates::k10G, {minutes(12), minutes(14)}).ok());
  // A 4-minute window fits in neither the [0,2) gap before the first
  // reservation nor the [10,12) gap between them; first fit is at 14.
  const auto w =
      cal.earliest_feasible(route, rates::k10G, minutes(4), SimTime{});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value().start, minutes(14));
}

TEST(Calendar, TruncateHandsTailBack) {
  ReservationCalendar cal(cal_params(rates::k10G));
  const std::vector<LinkId> route{LinkId{0}};
  const auto id =
      cal.reserve(kCspA, route, rates::k10G, {minutes(0), minutes(60)});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(cal.truncate(id.value(), minutes(20)).ok());
  EXPECT_EQ(cal.committed(LinkId{0}, minutes(10)), rates::k10G);
  EXPECT_EQ(cal.committed(LinkId{0}, minutes(30)), DataRate{});
  EXPECT_TRUE(cal.feasible(route, rates::k10G, {minutes(20), minutes(60)}));
}

TEST(Calendar, RenderShowsOccupancy) {
  ReservationCalendar cal(cal_params(rates::k10G));
  const std::vector<LinkId> route{LinkId{0}};
  ASSERT_TRUE(
      cal.reserve(kCspA, route, DataRate::gbps(5), {minutes(0), minutes(3)})
          .ok());
  const std::string chart = cal.render(route, SimTime{}, minutes(6));
  EXPECT_NE(chart.find("555..."), std::string::npos);
}

// Dense reference for earliest_feasible(): a table of committed rate per
// (link, slot), read back through committed(), and a search that tries
// every candidate start slot in turn and checks every slot of its window.
struct DenseCalendar {
  SimTime slot;
  SimTime horizon;
  std::map<LinkId, DataRate> capacity;
  std::map<LinkId, std::vector<DataRate>> used;

  DenseCalendar(const ReservationCalendar& cal,
                const ReservationCalendar::Params& p,
                const std::vector<LinkId>& links, std::int64_t slots)
      : slot(p.slot), horizon(p.horizon) {
    for (const LinkId l : links) {
      capacity[l] = cal.link_capacity(l);
      auto& row = used[l];
      for (std::int64_t s = 0; s < slots; ++s)
        row.push_back(cal.committed(l, slot * s));
    }
  }

  [[nodiscard]] Result<Window> earliest_feasible(
      const std::vector<LinkId>& links, DataRate rate, SimTime duration,
      SimTime not_before, SimTime end_before) const {
    for (const LinkId l : links)
      if (rate > capacity.at(l))
        return Error{ErrorCode::kResourceExhausted, "rate over budget"};
    const std::int64_t needed =
        std::max<std::int64_t>(1, (duration + slot - microseconds(1)) / slot);
    const std::int64_t first = (not_before + slot - microseconds(1)) / slot;
    for (std::int64_t s = first; s < first + horizon / slot; ++s) {
      const Window w{slot * s, slot * s + duration};
      if (w.end >= end_before) break;
      bool fits = true;
      for (const LinkId l : links)
        for (std::int64_t k = s; k < s + needed && fits; ++k)
          fits = used.at(l).at(static_cast<std::size_t>(k)) + rate <=
                 capacity.at(l);
      if (fits) return w;
    }
    return Error{ErrorCode::kResourceExhausted, "no window"};
  }
};

TEST(Calendar, EarliestFeasibleMatchesDenseReferenceUnderRandomOps) {
  ReservationCalendar::Params params = cal_params(rates::k40G);
  params.horizon = minutes(120);
  // Reservations and query starts stay below 200 min; the longest window
  // is 40 min, so 400 one-minute slots cover every slot a search reads.
  constexpr std::int64_t kSlots = 400;
  std::vector<LinkId> all;
  for (std::uint64_t i = 0; i < 8; ++i) all.push_back(LinkId{i});
  const std::vector<DataRate> rate_choices{
      rates::k1G, DataRate::gbps(5), rates::k10G, DataRate::gbps(20),
      rates::k40G};

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ReservationCalendar cal(params);
    std::vector<ReservationId> held;
    const auto pick_links = [&](int most) {
      std::vector<LinkId> links = all;
      std::shuffle(links.begin(), links.end(), rng.engine());
      links.resize(static_cast<std::size_t>(rng.uniform_int(1, most)));
      return links;
    };
    const auto pick_rate = [&] {
      return rate_choices[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rate_choices.size()) -
                                 1))];
    };
    for (int op = 0; op < 250; ++op) {
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind <= 4) {
        const SimTime start = seconds(rng.uniform_int(0, 190 * 60));
        const SimTime len = seconds(rng.uniform_int(20, 40 * 60));
        if (auto id = cal.reserve(kCspA, pick_links(4), pick_rate(),
                                  {start, start + len});
            id.ok())
          held.push_back(id.value());
      } else if (kind <= 6 && !held.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
        if (kind == 5) {
          ASSERT_TRUE(cal.release(held[i]).ok());
        } else {
          // Truncating to the window start drops the reservation.
          const Window w = cal.find(held[i])->window;
          const SimTime cut =
              seconds(rng.uniform_int(0, w.duration() / seconds(1)));
          ASSERT_TRUE(cal.truncate(held[i], w.start + cut).ok());
        }
        if (cal.find(held[i]) == nullptr)
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        // Budgets move both ways, including below what is committed (as
        // an access pipe does when a direct connection lights a port).
        const LinkId l = all[static_cast<std::size_t>(rng.uniform_int(0, 7))];
        cal.set_link_capacity(l, kind == 9 ? rates::k40G : pick_rate());
      }

      const DenseCalendar dense(cal, params, all, kSlots);
      for (int q = 0; q < 6; ++q) {
        const std::vector<LinkId> links = pick_links(5);
        const DataRate rate = pick_rate();
        const SimTime duration = seconds(rng.uniform_int(1, 40 * 60));
        // Mid-slot not_before; late ones push windows past the horizon.
        const SimTime not_before = seconds(rng.uniform_int(0, 200 * 60));
        const auto unbounded = cal.earliest_feasible(links, rate, duration,
                                                     not_before);
        const auto expect = dense.earliest_feasible(links, rate, duration,
                                                    not_before, SimTime::max());
        ASSERT_EQ(unbounded.ok(), expect.ok()) << "op " << op << " q " << q;
        if (expect.ok()) {
          ASSERT_EQ(unbounded.value(), expect.value()) << "op " << op;
        }
        // Bounds at, just past and at a random distance from the answer.
        std::vector<SimTime> bounds{not_before + minutes(rng.uniform_int(
                                                     1, 200))};
        if (expect.ok()) {
          bounds.push_back(expect.value().end);
          bounds.push_back(expect.value().end + microseconds(1));
        }
        for (const SimTime end_before : bounds) {
          const auto got = cal.earliest_feasible(links, rate, duration,
                                                 not_before, end_before);
          const auto want = dense.earliest_feasible(links, rate, duration,
                                                    not_before, end_before);
          ASSERT_EQ(got.ok(), want.ok())
              << "op " << op << " end_before " << end_before.count();
          if (want.ok()) {
            ASSERT_EQ(got.value(), want.value()) << "op " << op;
          }
        }
      }
    }
  }
}

// --- AdmissionController ----------------------------------------------------

TEST(Admission, UnknownCustomerIsPermissionDenied) {
  sim::Engine engine{1};
  AdmissionController adm(&engine);
  const auto s = adm.admit({kCspA, rates::k10G, Priority::kOnDemand});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(adm.stats().rejected_unknown, 1u);
}

TEST(Admission, TokenBucketLimitsRequestRateAndRefills) {
  sim::Engine engine{1};
  AdmissionController adm(&engine);
  AdmissionController::CustomerPolicy policy;
  policy.requests_per_second = 1.0;
  policy.burst = 2.0;
  adm.set_policy(kCspA, policy);
  EXPECT_TRUE(adm.admit({kCspA, rates::k1G, Priority::kOnDemand}).ok());
  EXPECT_TRUE(adm.admit({kCspA, rates::k1G, Priority::kOnDemand}).ok());
  const auto limited = adm.admit({kCspA, rates::k1G, Priority::kOnDemand});
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.error().code(), ErrorCode::kBusy);
  // One second refills one token.
  engine.run_until(seconds(1));
  EXPECT_TRUE(adm.admit({kCspA, rates::k1G, Priority::kOnDemand}).ok());
  EXPECT_EQ(adm.stats().rejected_rate_limit, 1u);
}

TEST(Admission, ClassSharesShrinkTheQuotaForBulk) {
  sim::Engine engine{1};
  AdmissionController adm(&engine);
  AdmissionController::CustomerPolicy policy;
  policy.bandwidth_quota = DataRate::gbps(100);
  policy.class_share = {1.0, 0.9, 0.7};
  adm.set_policy(kCspA, policy);
  adm.commit(kCspA, DataRate::gbps(65));
  // 65G committed: bulk (70% share) has only 5G headroom, on-demand 35G.
  EXPECT_FALSE(
      adm.admit({kCspA, rates::k10G, Priority::kBestEffortBulk}).ok());
  EXPECT_TRUE(adm.admit({kCspA, rates::k10G, Priority::kOnDemand}).ok());
  const auto over = adm.admit({kCspA, rates::k40G, Priority::kOnDemand});
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code(), ErrorCode::kResourceExhausted);
  adm.release(kCspA, DataRate::gbps(65));
  EXPECT_TRUE(
      adm.admit({kCspA, rates::k10G, Priority::kBestEffortBulk}).ok());
}

TEST(Admission, OutOfRangePriorityIsInvalidArgument) {
  sim::Engine engine{1};
  AdmissionController adm(&engine);
  adm.set_policy(kCspA, AdmissionController::CustomerPolicy{});
  // A corrupted/raw-cast priority must be rejected, not index past the
  // 3-element class_share array.
  const auto bad = adm.admit({kCspA, rates::k1G, static_cast<Priority>(7)});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInvalidArgument);
}

// --- TransferScheduler ------------------------------------------------------

TransferScheduler::Params sched_params() {
  TransferScheduler::Params p;
  p.setup_pad = minutes(8);
  return p;
}

AdmissionController::CustomerPolicy open_policy(DataRate quota) {
  AdmissionController::CustomerPolicy policy;
  policy.bandwidth_quota = quota;
  policy.requests_per_second = 1000;
  policy.burst = 1000;
  return policy;
}

TEST(Scheduler, TransferCompletesBeforeDeadline) {
  core::TestbedScenario s(80);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  ReservationCalendar cal(cal_params(rates::k40G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 500'000'000'000;  // 0.5 TB
  req.deadline = hours(2);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());
  s.engine.run();

  const auto status = sched.inspect(s.csp, id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, TransferScheduler::TransferState::kCompleted);
  EXPECT_LE(status.value().expected_completion, req.deadline);
  EXPECT_EQ(sched.stats().deadline_met, 1u);
  EXPECT_EQ(sched.stats().deadline_missed, 0u);
  // All resources handed back: calendar, admission ledger, the portal.
  EXPECT_EQ(cal.active_reservations(), 0u);
  EXPECT_EQ(adm.committed(s.csp), DataRate{});
  EXPECT_EQ(s.portal->provisioned(), DataRate{});
  // Per-customer labeled counters recorded the lifecycle.
  const auto* accepted = tel.metrics().find_counter(
      "griphon_bod_transfers_accepted_total", {{"customer", "1"}});
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->value(), 1u);
  const auto* met = tel.metrics().find_counter(
      "griphon_bod_deadlines_met_total", {{"customer", "1"}});
  ASSERT_NE(met, nullptr);
  EXPECT_EQ(met->value(), 1u);
  EXPECT_TRUE(tel.metrics().invalid_names().empty());
  s.model->attach_telemetry(nullptr);
}

TEST(Scheduler, RefusalsCountThroughCachedSeries) {
  core::TestbedScenario s(81);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  ReservationCalendar cal(cal_params(rates::k40G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 0;  // refused: no volume
  req.deadline = hours(2);
  ASSERT_FALSE(sched.submit(req).ok());  // registers the series
  const std::uint64_t warm = tel.metrics().by_name_calls();
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(sched.submit(req).ok());
  EXPECT_EQ(tel.metrics().by_name_calls(), warm);

  const auto* invalid = tel.metrics().find_counter(
      "griphon_bod_transfers_rejected_total",
      {{"customer", "1"}, {"reason", "invalid"}});
  ASSERT_NE(invalid, nullptr);
  EXPECT_EQ(invalid->value(), 6u);
  const auto* submitted = tel.metrics().find_counter(
      "griphon_bod_transfers_submitted_total", {{"customer", "1"}});
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->value(), 6u);
  s.model->attach_telemetry(nullptr);
}

TEST(Scheduler, SplitsAcrossRoutesWhenOneWindowMissesTheDeadline) {
  core::TestbedScenario s(81);
  ReservationCalendar cal(cal_params(rates::k10G));  // one wave per link
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler::Params params;
  params.rate_ladder = {rates::k10G};
  params.setup_pad = minutes(2);
  TransferScheduler sched(s.controller.get(), &cal, &adm, params);
  sched.register_portal(s.portal.get());

  // 1.25 TB at 10G is 1000 s; a single 10G window cannot meet an 800 s
  // deadline, but two parallel 10G windows on disjoint routes can.
  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 1'250'000'000'000;
  req.deadline = seconds(800);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());
  const auto status = sched.inspect(s.csp, id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().pieces, 2);
  EXPECT_EQ(sched.stats().splits, 1u);
  s.engine.run();
  EXPECT_EQ(sched.stats().deadline_met, 1u);
}

TEST(Scheduler, ReschedulesScheduledPieceAfterFiberCut) {
  core::TestbedScenario s(82);
  ReservationCalendar cal(cal_params(rates::k10G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler::Params params;
  params.rate_ladder = {rates::k10G};
  TransferScheduler sched(s.controller.get(), &cal, &adm, params);
  sched.register_portal(s.portal.get());

  // Saturate the first hour of every route out of I so the transfer's
  // window lands in the future (piece scheduled, not yet live).
  for (const LinkId l : {s.topo.i_iv, s.topo.i_iii, s.topo.i_ii})
    ASSERT_TRUE(cal.reserve(CustomerId{99}, {l}, rates::k10G,
                            {SimTime{}, hours(1)})
                    .ok());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 250'000'000'000;  // 200 s at 10G
  req.deadline = hours(3);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());

  // Cut the direct fiber long before the window opens: the scheduler must
  // re-plan the piece onto a surviving route.
  s.engine.schedule_at(minutes(10),
                       [&] { s.model->fail_link(s.topo.i_iv); });
  s.engine.run();

  EXPECT_GE(sched.stats().reschedules, 1u);
  const auto status = sched.inspect(s.csp, id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, TransferScheduler::TransferState::kCompleted);
  EXPECT_EQ(sched.stats().deadline_met, 1u);
}

TEST(Scheduler, AccessPipeSerializesTransfersSharingASite) {
  core::TestbedScenario s(83);
  // Backbone links get a wide-open budget: the only scarce resource in
  // this test is the sites' 4x10G NTE access pipe, which the scheduler
  // must meter through the calendar rather than discover via failed
  // setups.
  ReservationCalendar cal(cal_params(DataRate::gbps(160)));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(200)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 1'000'000'000'000;  // 200 s at the 40G top rate
  req.deadline = hours(4);
  const auto first = sched.submit(req);
  const auto second = sched.submit(req);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  const auto planned_a = sched.inspect(s.csp, first.value());
  const auto planned_b = sched.inspect(s.csp, second.value());
  ASSERT_TRUE(planned_a.ok());
  ASSERT_TRUE(planned_b.ok());
  // Both transfers want the full 40G pipe at site I; the calendar can only
  // promise it to one at a time, so the second is planned strictly after
  // the first instead of colliding with it at setup.
  EXPECT_GT(planned_b.value().expected_completion,
            planned_a.value().expected_completion);

  s.engine.run();
  EXPECT_EQ(sched.stats().deadline_met, 2u);
  // No piece ever found the NTE ports taken: access contention was
  // resolved at planning time, not by retrying failed setups.
  EXPECT_EQ(sched.stats().setup_retries, 0u);
  EXPECT_EQ(cal.active_reservations(), 0u);
}

TEST(Scheduler, AccessPipeAccountsForDirectPortalConnections) {
  core::TestbedScenario s(83);
  ReservationCalendar cal(cal_params(DataRate::gbps(160)));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(200)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  // A connection ordered straight through the portal lights an NTE port
  // the calendar never saw. The scheduler must still notice: a 40G plan
  // would promise a rate the three remaining 10G ports cannot carry, and
  // before the fix it retried the doomed setup and re-planned the same
  // doomed window forever while the transfer sat "scheduled" past its
  // deadline.
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [](Result<ConnectionId> r) { ASSERT_TRUE(r.ok()); });
  s.engine.run();

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 1'000'000'000'000;
  req.deadline = s.engine.now() + hours(4);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());

  s.engine.run();
  const auto status = sched.inspect(s.csp, id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, TransferScheduler::TransferState::kCompleted);
  EXPECT_EQ(sched.stats().deadline_met, 1u);
  // Planning capped the rate at the free 3x10G, so no setup ever collided
  // with the foreign connection's port.
  EXPECT_EQ(sched.stats().setup_retries, 0u);
  EXPECT_EQ(sched.stats().reschedules, 0u);
}

TEST(Scheduler, PartialSplitPlanIsRejectedAndRolledBack) {
  core::TestbedScenario s(87);
  const auto cp = cal_params(rates::k10G);
  ReservationCalendar cal(cp);
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler::Params params;
  params.rate_ladder = {rates::k10G};
  params.setup_pad = minutes(2);
  params.max_pieces = 2;
  TransferScheduler sched(s.controller.get(), &cal, &adm, params);
  sched.register_portal(s.portal.get());

  // Only the direct I-IV fiber has calendar space, and only a 10-minute
  // gap: room for half the bytes but not all of them, and not for a
  // second piece either. The final split attempt plans piece 1, fails on
  // piece 2, and the half-plan must be released — not silently accepted
  // as a "complete" transfer carrying half the volume.
  ASSERT_TRUE(cal.reserve(CustomerId{99}, {s.topo.i_iii}, rates::k10G,
                          {SimTime{}, cp.horizon})
                  .ok());
  ASSERT_TRUE(cal.reserve(CustomerId{99}, {s.topo.i_ii}, rates::k10G,
                          {SimTime{}, cp.horizon})
                  .ok());
  ASSERT_TRUE(cal.reserve(CustomerId{99}, {s.topo.i_iv}, rates::k10G,
                          {minutes(10), cp.horizon})
                  .ok());
  const auto before = cal.active_reservations();

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 1'000'000'000'000;  // 800 s at 10G; half fits the gap
  req.deadline = hours(2);
  const auto rejected = sched.submit(req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(cal.active_reservations(), before);
  EXPECT_EQ(adm.committed(s.csp), DataRate{});
  EXPECT_EQ(sched.stats().accepted, 0u);
}

TEST(Scheduler, CancelDuringSetupTearsDownTheLateBundle) {
  core::TestbedScenario s(88);
  ReservationCalendar cal(cal_params(rates::k40G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 500'000'000'000;
  req.deadline = hours(2);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());

  // The window opens at t=0 so setup starts immediately, but bundle setup
  // takes tens of sim-seconds. Cancel while it is in flight: the connect
  // result arrives for a cancelled transfer and its bundle must be torn
  // down, not leaked as permanently-lit NTE ports.
  s.engine.run_until(seconds(1));
  ASSERT_TRUE(sched.cancel(s.csp, id.value()).ok());
  s.engine.run();

  EXPECT_EQ(s.portal->provisioned(), DataRate{});
  EXPECT_EQ(cal.active_reservations(), 0u);
  EXPECT_EQ(adm.committed(s.csp), DataRate{});
}

TEST(Scheduler, SetupRacingAFiberCutDoesNotBindAStaleRoute) {
  core::TestbedScenario s(89);
  ReservationCalendar cal(cal_params(rates::k10G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  TransferScheduler::Params params;
  params.rate_ladder = {rates::k10G};
  TransferScheduler sched(s.controller.get(), &cal, &adm, params);
  sched.register_portal(s.portal.get());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 250'000'000'000;  // 200 s at 10G
  req.deadline = hours(3);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());

  // Cut the direct fiber while the first setup is still in flight. The
  // piece is re-planned onto a surviving route; the old setup's result —
  // success or failure — is from a superseded epoch and must neither bind
  // its bundle to the new plan nor re-enter the retry path.
  s.engine.run_until(seconds(1));
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();

  const auto status = sched.inspect(s.csp, id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state,
            TransferScheduler::TransferState::kCompleted);
  EXPECT_EQ(sched.stats().completed, 1u);
  // Every bundle the race created was handed back.
  EXPECT_EQ(s.portal->provisioned(), DataRate{});
  EXPECT_EQ(cal.active_reservations(), 0u);
  EXPECT_EQ(adm.committed(s.csp), DataRate{});
}

// The scheduler answers access_link() and migration_exempt_connections()
// from an index of live transfers. The oracle ignores it: it walks every
// transfer id through inspect() and recomputes both answers from the
// live transfers' carrying bundles.
void expect_live_transfers_consistent(
    TransferScheduler& sched, const ReservationCalendar& cal,
    const core::TestbedScenario& s,
    const std::map<TransferId, std::pair<MuxponderId, MuxponderId>>& sites) {
  std::map<MuxponderId, DataRate> owned;
  std::set<ConnectionId> exempt;
  for (std::uint64_t i = 0; i <= sched.stats().submitted + 1; ++i) {
    const auto st = sched.inspect(s.csp, TransferId{i});
    if (!st.ok()) continue;
    const auto state = st.value().state;
    if (state != TransferScheduler::TransferState::kScheduled &&
        state != TransferScheduler::TransferState::kActive)
      continue;
    const auto [src, dst] = sites.at(TransferId{i});
    for (const core::BundleId b : st.value().live_bundles) {
      const auto& bundle = s.portal->bundle(b);
      owned[src] += bundle.requested;
      if (dst != src) owned[dst] += bundle.requested;
      exempt.insert(bundle.parts.begin(), bundle.parts.end());
    }
  }
  EXPECT_EQ(sched.migration_exempt_connections(), exempt);
  for (const MuxponderId nte : {s.site_i, s.site_iii, s.site_iv}) {
    const dwdm::Muxponder& device = s.model->nte(nte);
    const DataRate hardware =
        device.client_rate() *
        static_cast<std::int64_t>(dwdm::Muxponder::kClientPorts);
    const DataRate lit =
        device.client_rate() * static_cast<std::int64_t>(device.ports_in_use());
    const DataRate foreign =
        lit > owned[nte] ? lit - owned[nte] : DataRate{};
    const DataRate budget =
        hardware > foreign ? hardware - foreign : DataRate{};
    EXPECT_EQ(cal.link_capacity(sched.access_link(nte)), budget)
        << "access pipe of NTE " << nte.value();
  }
}

TEST(Scheduler, LiveTransferIndexMatchesBruteForceWalk) {
  for (const std::uint64_t seed : {91u, 92u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::TestbedScenario s(seed);
    // Half a pipe per fiber: transfers queue for windows, so scheduled
    // (not yet live) pieces are around when a fiber is cut.
    ReservationCalendar cal(cal_params(DataRate::gbps(20)));
    AdmissionController adm(&s.engine);
    adm.set_policy(s.csp, open_policy(DataRate::gbps(400)));
    TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
    sched.register_portal(s.portal.get());

    const std::vector<MuxponderId> nte{s.site_i, s.site_iii, s.site_iv};
    const std::vector<LinkId> fibers{s.topo.i_iv, s.topo.i_iii,
                                     s.topo.iii_iv, s.topo.i_ii,
                                     s.topo.ii_iii};
    std::map<TransferId, std::pair<MuxponderId, MuxponderId>> sites;
    std::vector<TransferId> ids;
    std::set<LinkId> cut;
    Rng rng(seed);
    for (int step = 0; step < 80; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::int64_t dice = rng.uniform_int(0, 9);
      if (dice <= 3) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(0, 2));
        const auto b = (a + static_cast<std::size_t>(rng.uniform_int(1, 2))) % 3;
        TransferScheduler::TransferRequest req;
        req.customer = s.csp;
        req.src_site = nte[a];
        req.dst_site = nte[b];
        req.bytes = rng.uniform_int(200, 2000) * 1'000'000'000;
        req.deadline = s.engine.now() + minutes(rng.uniform_int(60, 360));
        if (const auto id = sched.submit(req); id.ok()) {
          sites[id.value()] = {req.src_site, req.dst_site};
          ids.push_back(id.value());
        }
      } else if (dice == 4 && !ids.empty()) {
        // Finished transfers refuse the cancel; that is part of the mix.
        (void)sched.cancel(
            s.csp, ids[static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<std::int64_t>(ids.size()) - 1))]);
      } else if (dice == 5) {
        // A direct portal connection lights an NTE port the calendar
        // never saw.
        const auto a = static_cast<std::size_t>(rng.uniform_int(0, 2));
        s.portal->connect(nte[a], nte[(a + 1) % 3], rates::k10G,
                          core::ProtectionMode::kUnprotected,
                          [](Result<ConnectionId>) {});
      } else if (dice == 6) {
        const LinkId l = fibers[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(fibers.size()) - 1))];
        if (cut.insert(l).second) {
          s.model->fail_link(l);
        } else {
          s.model->repair_link(l);
          cut.erase(l);
        }
      } else if (dice == 7) {
        s.engine.run();  // every transfer in flight runs to completion
      }
      s.engine.run_until(s.engine.now() + seconds(rng.uniform_int(10, 300)));
      expect_live_transfers_consistent(sched, cal, s, sites);
    }
    EXPECT_GT(sched.stats().completed, 0u);
  }
}

// --- customer isolation error paths ----------------------------------------

TEST(Isolation, OverQuotaTransferIsResourceExhausted) {
  core::TestbedScenario s(83);
  ReservationCalendar cal(cal_params(rates::k40G));
  AdmissionController adm(&s.engine);
  // Quota below the smallest service rate: nothing can be admitted.
  adm.set_policy(s.csp, open_policy(DataRate::mbps(500)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 1'000'000'000;
  req.deadline = hours(2);
  const auto rejected = sched.submit(req);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(sched.stats().rejected, 1u);
  // Nothing leaked into the calendar.
  EXPECT_EQ(cal.active_reservations(), 0u);
}

TEST(Isolation, CustomersCannotInspectOrCancelEachOther) {
  core::TestbedScenario s(84);
  const MuxponderId site_b =
      s.model->add_customer_site(kCspB, "DC-B", s.topo.iii).nte;
  (void)site_b;
  core::CustomerPortal portal_b(s.controller.get(), kCspB,
                                DataRate::gbps(40));
  ReservationCalendar cal(cal_params(rates::k40G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(100)));
  adm.set_policy(kCspB, open_policy(DataRate::gbps(100)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());
  sched.register_portal(&portal_b);

  TransferScheduler::TransferRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = s.site_iv;
  req.bytes = 100'000'000'000;
  req.deadline = hours(2);
  const auto id = sched.submit(req);
  ASSERT_TRUE(id.ok());

  // Customer B can neither observe nor destroy A's transfer.
  const auto peeked = sched.inspect(kCspB, id.value());
  ASSERT_FALSE(peeked.ok());
  EXPECT_EQ(peeked.error().code(), ErrorCode::kPermissionDenied);
  const auto cancelled = sched.cancel(kCspB, id.value());
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.error().code(), ErrorCode::kPermissionDenied);
  // A can cancel its own; resources come back.
  ASSERT_TRUE(sched.cancel(s.csp, id.value()).ok());
  EXPECT_EQ(cal.active_reservations(), 0u);
  EXPECT_EQ(adm.committed(s.csp), DataRate{});
}

TEST(Isolation, PortalRejectionsAreCountedPerCustomer) {
  core::TestbedScenario s(85);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  // A connection owned by customer 1; customer 2's portal must not be able
  // to release it, and the rejection lands in the labeled reject counter.
  std::optional<ConnectionId> conn;
  s.portal->connect(s.site_i, s.site_iv, rates::k1G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) {
                      ASSERT_TRUE(r.ok());
                      conn = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(conn.has_value());
  core::CustomerPortal portal_b(s.controller.get(), kCspB,
                                DataRate::gbps(40));
  std::optional<Status> release;
  portal_b.disconnect(*conn, [&](Status st) { release = st; });
  s.engine.run();
  ASSERT_TRUE(release.has_value());
  EXPECT_EQ(release->error().code(), ErrorCode::kPermissionDenied);
  const auto* rejects = tel.metrics().find_counter(
      "griphon_portal_rejects_total",
      {{"customer", "2"}, {"reason", "isolation"}});
  ASSERT_NE(rejects, nullptr);
  EXPECT_EQ(rejects->value(), 1u);
  s.model->attach_telemetry(nullptr);
}

// --- demand generator -------------------------------------------------------

TEST(BulkDemand, GeneratesAcceptedTransfers) {
  core::TestbedScenario s(86);
  ReservationCalendar cal(cal_params(rates::k40G));
  AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, open_policy(DataRate::gbps(120)));
  TransferScheduler sched(s.controller.get(), &cal, &adm, sched_params());
  sched.register_portal(s.portal.get());

  workload::BulkDemandGenerator::Params p;
  p.arrivals_per_hour = 4;
  p.min_bytes = 100'000'000'000;
  p.max_bytes = 2'000'000'000'000;
  p.endpoints = {{s.csp, s.site_i, s.site_iv}, {s.csp, s.site_i, s.site_iii}};
  workload::BulkDemandGenerator demand(&s.engine, &sched, p);
  demand.run_until(hours(12));
  s.engine.run();

  const auto& st = demand.stats();
  EXPECT_GT(st.offered, 20u);
  EXPECT_EQ(st.offered, st.accepted + st.rejected);
  EXPECT_GT(st.accepted, 0u);
  EXPECT_EQ(sched.stats().accepted, st.accepted);
  // Every accepted transfer ran to completion (the testbed is healthy).
  EXPECT_EQ(sched.stats().completed, st.accepted);
  // Most deadlines drawn with slack >= 1.5 are met on an idle testbed.
  EXPECT_GT(sched.stats().deadline_met, 0u);
}

}  // namespace
}  // namespace griphon::bod
