// Chaos-engineering tests: fault plans, the injector, the controller's
// retry / circuit-breaker / resync machinery, and full-stack soak runs
// under three fixed-seed fault plans.
//
// The soaks drive the complete controller + BoD stack (portal traffic,
// deadline-driven transfers) with faults armed, then disarm, heal, drain
// and audit. Invariants: no device in the plant holds configuration at
// the end, every accepted transfer reaches an explicit terminal state,
// and two runs of the same (plan, seed) produce identical histories.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bod/observability.hpp"
#include "bod/transfer_scheduler.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/fault_plan.hpp"
#include "core/ems_health.hpp"
#include "core/failure_manager.hpp"
#include "core/observability.hpp"
#include "core/scenario.hpp"
#include "ems/ems_server.hpp"
#include "live_index_oracle.hpp"
#include "proto/client.hpp"
#include "reopt/service.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

namespace griphon::chaos {
namespace {

using BreakerState = core::EmsHealthTracker::BreakerState;

// --- FaultPlan --------------------------------------------------------------

TEST(FaultPlanTest, PresetsByName) {
  for (const char* name :
       {"none", "ems-flaps", "channel-loss", "device-faults", "combined",
        "conduit-cut", "failure-storm"}) {
    const auto plan = FaultPlan::preset(name);
    ASSERT_TRUE(plan.ok()) << name;
    EXPECT_EQ(plan.value().name, name);
  }
  const auto bad = FaultPlan::preset("gremlins");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kNotFound);
}

TEST(FaultPlanTest, ParseOverridesPresetFields) {
  const auto plan = FaultPlan::parse(
      "# operator-authored plan\n"
      "preset=ems-flaps\n"
      "name=my-plan\n"
      "ems.nack_probability=0.2\n"
      "channel.extra_delay=0.5\n");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().name, "my-plan");
  EXPECT_DOUBLE_EQ(plan.value().ems.nack_probability, 0.2);
  // Untouched fields keep the preset's values.
  EXPECT_DOUBLE_EQ(plan.value().ems.slow_probability,
                   FaultPlan::ems_flaps().ems.slow_probability);
  EXPECT_EQ(plan.value().channel.extra_delay, milliseconds(500));
}

TEST(FaultPlanTest, ParseRejectsBadInput) {
  const auto out_of_range = FaultPlan::parse("ems.nack_probability=1.5\n");
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.error().code(), ErrorCode::kInvalidArgument);

  const auto unknown = FaultPlan::parse("ems.blink_rate=3\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code(), ErrorCode::kInvalidArgument);

  const auto garbage = FaultPlan::parse("just words\n");
  ASSERT_FALSE(garbage.ok());
}

TEST(FaultPlanTest, ScalingMultipliesProbabilitiesAndDividesIntervals) {
  const FaultPlan base = FaultPlan::combined();
  const FaultPlan hot = base.scaled(2.0);
  EXPECT_DOUBLE_EQ(hot.ems.nack_probability, base.ems.nack_probability * 2.0);
  EXPECT_DOUBLE_EQ(hot.channel.drop_probability,
                   base.channel.drop_probability * 2.0);
  EXPECT_EQ(hot.ems.mean_crash_interval,
            from_seconds(to_seconds(base.ems.mean_crash_interval) / 2.0));

  // Absurd intensities clamp: probabilities never reach 1.0.
  const FaultPlan melted = base.scaled(1000.0);
  EXPECT_LE(melted.ems.nack_probability, 0.95);
  EXPECT_LE(melted.channel.drop_probability, 0.95);

  // Intensity zero turns every fault off.
  const FaultPlan off = base.scaled(0.0);
  EXPECT_DOUBLE_EQ(off.ems.nack_probability, 0.0);
  EXPECT_FALSE(off.wants_channel_faults());
  EXPECT_EQ(off.ems.mean_crash_interval, SimTime{});
  EXPECT_EQ(off.device.mean_ot_fault_interval, SimTime{});
}

TEST(FaultPlanTest, RenderNamesThePlan) {
  const std::string text = FaultPlan::ems_flaps().render();
  EXPECT_NE(text.find("ems-flaps"), std::string::npos);
}

// --- FaultInjector hooks ----------------------------------------------------

TEST(Injector, DisarmedHooksAreNeutral) {
  core::TestbedScenario s(3);
  FaultInjector inj(s.model.get(), FaultPlan::combined(), 42);
  const auto d = inj.on_frame();
  EXPECT_FALSE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(d.extra_delay, SimTime{});
  EXPECT_TRUE(
      inj.on_command("roadm-ems",
                     proto::Message{proto::OtTune{TransponderId{0}, 1}})
          .ok());
  EXPECT_DOUBLE_EQ(inj.latency_scale("roadm-ems"), 1.0);
}

TEST(Injector, ArmDisarmIsLoggedAndIdempotent) {
  core::TestbedScenario s(4);
  FaultInjector inj(s.model.get(), FaultPlan::ems_flaps(), 42);
  inj.arm();
  inj.arm();  // no-op
  EXPECT_TRUE(inj.armed());
  inj.disarm();
  EXPECT_FALSE(inj.armed());
  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_EQ(inj.log()[0].kind, "arm");
  EXPECT_EQ(inj.log()[1].kind, "disarm");
  EXPECT_NE(inj.render_log().find("arm"), std::string::npos);
}

// --- EmsHealthTracker (circuit breaker) -------------------------------------

TEST(EmsHealth, BreakerLifecycle) {
  sim::Engine engine;
  core::EmsHealthTracker::Params p;
  p.failure_threshold = 3;
  p.open_cooldown = seconds(45);
  core::EmsHealthTracker hb(&engine, p);

  // Closed: everything admitted; a success resets the timeout run.
  EXPECT_TRUE(hb.allow("roadm-ems"));
  hb.record_timeout("roadm-ems");
  hb.record_timeout("roadm-ems");
  hb.record_success("roadm-ems");
  EXPECT_EQ(hb.consecutive_timeouts("roadm-ems"), 0);
  EXPECT_EQ(hb.state("roadm-ems"), BreakerState::kClosed);

  // Three consecutive timeouts trip it open.
  hb.record_timeout("roadm-ems");
  hb.record_timeout("roadm-ems");
  EXPECT_EQ(hb.state("roadm-ems"), BreakerState::kClosed);
  hb.record_timeout("roadm-ems");
  EXPECT_EQ(hb.state("roadm-ems"), BreakerState::kOpen);
  EXPECT_FALSE(hb.allow("roadm-ems"));
  EXPECT_EQ(hb.stats().opens, 1u);
  EXPECT_EQ(hb.stats().fast_failures, 1u);
  // Domains are independent.
  EXPECT_TRUE(hb.allow("otn-ems"));

  // After the cooldown one probe is admitted; a second caller is shed.
  engine.schedule(seconds(50), [] {});
  engine.run();
  EXPECT_TRUE(hb.allow("roadm-ems"));
  EXPECT_EQ(hb.state("roadm-ems"), BreakerState::kHalfOpen);
  EXPECT_FALSE(hb.allow("roadm-ems"));

  // A failed probe re-opens immediately (no threshold counting).
  hb.record_timeout("roadm-ems");
  EXPECT_EQ(hb.state("roadm-ems"), BreakerState::kOpen);
  EXPECT_EQ(hb.stats().opens, 2u);

  // Cooldown again; this time the probe succeeds and the breaker closes.
  engine.schedule(seconds(50), [] {});
  engine.run();
  EXPECT_TRUE(hb.allow("roadm-ems"));
  hb.record_success("roadm-ems");
  EXPECT_EQ(hb.state("roadm-ems"), BreakerState::kClosed);
  EXPECT_EQ(hb.stats().closes, 1u);
  EXPECT_TRUE(hb.allow("roadm-ems"));
}

// --- EMS response cache (LRU) -----------------------------------------------

TEST(EmsCache, LruEvictionWithReplayRefresh) {
  sim::Engine engine;
  proto::ControlChannel chan(&engine, proto::ControlChannel::Params{});
  ems::EmsServer server(&engine, &chan.b(),
                        ems::EmsLatencyProfile::testbed_2011(), "roadm-ems");
  telemetry::Telemetry tel(&engine);
  server.set_telemetry(&tel);
  dwdm::Transponder ot(TransponderId{0}, NodeId{0}, rates::k10G);
  server.manage_ot(&ot);
  server.set_response_cache_capacity(2);

  int responses = 0;
  chan.a().on_receive([&](const proto::Bytes& b) {
    EXPECT_TRUE(proto::decode_frame(b).ok());
    ++responses;
  });
  const auto send = [&](std::uint64_t id) {
    chan.a().send(proto::encode_frame(
        id, proto::Message{proto::OtTune{TransponderId{0}, 4}}));
    engine.run();
  };

  send(1);
  send(2);
  EXPECT_EQ(server.commands_executed(), 2u);
  EXPECT_EQ(server.response_cache_size(), 2u);
  EXPECT_EQ(server.cache_evictions(), 0u);

  // A duplicate of id 1 replays from the cache (no re-execution) and
  // refreshes its recency, so id 2 is now the coldest entry.
  send(1);
  EXPECT_EQ(server.commands_executed(), 2u);

  // A new id past capacity evicts the coldest (id 2), not the refreshed 1.
  send(3);
  EXPECT_EQ(server.cache_evictions(), 1u);
  EXPECT_EQ(server.response_cache_size(), 2u);
  send(1);
  EXPECT_EQ(server.commands_executed(), 3u);  // still a replay

  // Id 2 was evicted: re-sending it re-executes the command.
  send(2);
  EXPECT_EQ(server.commands_executed(), 4u);
  EXPECT_EQ(server.cache_evictions(), 2u);
  EXPECT_EQ(responses, 6);

  const auto* ev =
      tel.metrics().find_counter("griphon_ems_roadm_cache_evictions_total");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->value(), 2u);

  // Shrinking a full cache evicts its coldest ids. Grow to 3 and fill it
  // (LRU order 1, 2, 3); replaying 1 leaves 2 and 3 the coldest.
  server.set_response_cache_capacity(3);
  send(3);
  send(1);
  EXPECT_EQ(server.response_cache_size(), 3u);
  EXPECT_EQ(server.commands_executed(), 5u);
  server.set_response_cache_capacity(1);
  EXPECT_EQ(server.response_cache_size(), 1u);
  EXPECT_EQ(server.cache_evictions(), 4u);
  EXPECT_EQ(ev->value(), 4u);
  send(1);
  EXPECT_EQ(server.commands_executed(), 5u);  // the hottest id survived
  send(3);
  EXPECT_EQ(server.commands_executed(), 6u);  // an evicted id re-executes
  EXPECT_EQ(responses, 10);
  server.set_telemetry(nullptr);
}

// --- proto::RequestClient vs duplicated responses ---------------------------

/// Echo server that answers every request twice — the pathological EMS a
/// duplicating control channel can also produce.
struct DoubleEchoServer {
  explicit DoubleEchoServer(proto::Endpoint* ep) : ep_(ep) {
    ep_->on_receive([this](const proto::Bytes& b) {
      const auto f = proto::decode_frame(b);
      ASSERT_TRUE(f.ok());
      ++requests;
      proto::Response r;
      r.aux = f.value().request_id;
      ep_->send(proto::encode_frame(f.value().request_id, proto::Message{r}));
      ep_->send(proto::encode_frame(f.value().request_id, proto::Message{r}));
    });
  }
  proto::Endpoint* ep_;
  int requests = 0;
};

TEST(RequestClientChaos, DuplicateResponseInvokesCallbackOnce) {
  sim::Engine engine;
  proto::ControlChannel chan(&engine, proto::ControlChannel::Params{});
  proto::RequestClient client(&engine, &chan.a(),
                              proto::RequestClient::Params{});
  DoubleEchoServer server(&chan.b());

  int calls = 0;
  client.request(proto::Message{proto::OtTune{TransponderId{1}, 4}},
                 [&](Result<proto::Response> r) {
                   ++calls;
                   EXPECT_TRUE(r.ok());
                 });
  engine.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client.pending(), 0u);
  // The stale duplicate must not corrupt timer bookkeeping: no timeout
  // fires later, and the client keeps serving fresh requests.
  EXPECT_EQ(client.timeouts(), 0u);
  int calls2 = 0;
  client.request(proto::Message{proto::OtTune{TransponderId{1}, 5}},
                 [&](Result<proto::Response> r) {
                   ++calls2;
                   EXPECT_TRUE(r.ok());
                 });
  engine.run();
  EXPECT_EQ(calls2, 1);
  EXPECT_EQ(client.timeouts(), 0u);
}

/// Channel hook that duplicates every frame (requests and responses).
struct AlwaysDuplicate final : proto::ChannelFaultHook {
  proto::FaultDecision on_frame() override {
    proto::FaultDecision d;
    d.duplicate = true;
    return d;
  }
};

/// Single-answer echo server (duplication is the channel's job here).
struct EchoServer {
  explicit EchoServer(proto::Endpoint* ep) : ep_(ep) {
    ep_->on_receive([this](const proto::Bytes& b) {
      const auto f = proto::decode_frame(b);
      ASSERT_TRUE(f.ok());
      ++requests;
      proto::Response r;
      ep_->send(proto::encode_frame(f.value().request_id, proto::Message{r}));
    });
  }
  proto::Endpoint* ep_;
  int requests = 0;
};

TEST(RequestClientChaos, ChannelDuplicationIsHarmless) {
  sim::Engine engine;
  proto::ControlChannel chan(&engine, proto::ControlChannel::Params{});
  AlwaysDuplicate hook;
  chan.set_fault_hook(&hook);
  proto::RequestClient client(&engine, &chan.a(),
                              proto::RequestClient::Params{});
  EchoServer server(&chan.b());

  int calls = 0;
  client.request(proto::Message{proto::OtTune{TransponderId{1}, 4}},
                 [&](Result<proto::Response> r) {
                   ++calls;
                   EXPECT_TRUE(r.ok());
                 });
  engine.run();
  EXPECT_EQ(server.requests, 2);  // the request really was duplicated
  EXPECT_EQ(calls, 1);            // ...and the callback still fired once
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_EQ(client.timeouts(), 0u);
  chan.set_fault_hook(nullptr);
}

// --- FailureManager correlation under delay / reorder -----------------------

Alarm line_alarm(std::uint64_t id, AlarmType type, LinkId link,
                 const std::string& source) {
  Alarm a;
  a.id = AlarmId{id};
  a.type = type;
  a.source = source;
  a.link = link;
  return a;
}

TEST(FailureCorrelation, BothEndsInsideWindowLocalizeOnce) {
  sim::Engine engine;
  core::FailureManager fm(&engine);
  int events = 0;
  std::vector<LinkId> last;
  fm.on_failure([&](const core::FailureManager::FailureEvent& event) {
    ++events;
    last = event.links;
  });
  const LinkId cut{7};
  engine.schedule(SimTime{}, [&] {
    fm.ingest(line_alarm(1, AlarmType::kLos, cut, "roadm/1"));
  });
  engine.schedule(milliseconds(900), [&] {
    fm.ingest(line_alarm(2, AlarmType::kLos, cut, "roadm/2"));
  });
  engine.run();
  EXPECT_EQ(events, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last.front(), cut);
  EXPECT_TRUE(fm.believed_failed().contains(cut));
}

TEST(FailureCorrelation, StragglerOutsideWindowDoesNotRelocalize) {
  sim::Engine engine;
  core::FailureManager fm(&engine);
  int failures = 0;
  int repairs = 0;
  fm.on_failure(
      [&](const core::FailureManager::FailureEvent&) { ++failures; });
  fm.on_repair([&](const std::vector<LinkId>&) { ++repairs; });
  const LinkId cut{3};
  // The far end's alarm is delayed well past the 2.5 s holddown: it opens
  // a second correlation window, but the link is already believed failed,
  // so the same cut must not localize as two failures.
  engine.schedule(SimTime{}, [&] {
    fm.ingest(line_alarm(1, AlarmType::kLos, cut, "roadm/1"));
  });
  engine.schedule(seconds(4), [&] {
    fm.ingest(line_alarm(2, AlarmType::kLos, cut, "roadm/2"));
  });
  engine.run();
  EXPECT_EQ(failures, 1);
  EXPECT_TRUE(fm.believed_failed().contains(cut));

  // Same discipline on repair: a delayed second CLEAR finds the link
  // already believed healthy and stays silent.
  engine.schedule(SimTime{}, [&] {
    fm.ingest(line_alarm(3, AlarmType::kClear, cut, "roadm/1"));
  });
  engine.schedule(seconds(4), [&] {
    fm.ingest(line_alarm(4, AlarmType::kClear, cut, "roadm/2"));
  });
  engine.run();
  EXPECT_EQ(repairs, 1);
  EXPECT_FALSE(fm.believed_failed().contains(cut));
}

TEST(FailureCorrelation, ReorderedInterleavedAlarmsGroupIntoOneEvent) {
  sim::Engine engine;
  core::FailureManager fm(&engine);
  int events = 0;
  std::set<LinkId> seen;
  fm.on_failure([&](const core::FailureManager::FailureEvent& event) {
    ++events;
    seen.insert(event.links.begin(), event.links.end());
  });
  const LinkId cut_a{1};
  const LinkId cut_b{2};
  // Two simultaneous cuts whose alarms arrive shuffled (far ends first,
  // links interleaved) within one window: one localization event naming
  // both links, not four.
  engine.schedule(SimTime{}, [&] {
    fm.ingest(line_alarm(1, AlarmType::kLos, cut_b, "roadm/9"));
  });
  engine.schedule(milliseconds(200), [&] {
    fm.ingest(line_alarm(2, AlarmType::kLos, cut_a, "roadm/4"));
  });
  engine.schedule(milliseconds(400), [&] {
    fm.ingest(line_alarm(3, AlarmType::kLos, cut_b, "roadm/8"));
  });
  engine.schedule(milliseconds(600), [&] {
    fm.ingest(line_alarm(4, AlarmType::kLos, cut_a, "roadm/5"));
  });
  engine.run();
  EXPECT_EQ(events, 1);
  EXPECT_EQ(seen, (std::set<LinkId>{cut_a, cut_b}));
}

// --- controller reconciliation (resync) -------------------------------------

using ResyncReport = core::GriphonController::ResyncReport;

std::optional<ResyncReport> run_resync(core::TestbedScenario& s) {
  std::optional<ResyncReport> report;
  s.controller->resync([&](Result<ResyncReport> r) {
    ASSERT_TRUE(r.ok()) << r.error().message();
    report = r.value();
  });
  s.engine.run();
  return report;
}

TEST(Resync, CleanPlantAuditsClean) {
  core::TestbedScenario s(7);
  s.engine.run();
  ASSERT_TRUE(s.controller->quiescent());
  const auto report = run_resync(s);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->total_leaks(), 0u);
  EXPECT_EQ(report->drifted_connections, 0u);
  EXPECT_EQ(report->repair_commands, 0u);
  EXPECT_EQ(s.controller->stats().resync_runs, 1u);
}

TEST(Resync, LeakedDeviceConfigIsSweptClean) {
  core::TestbedScenario s(8);
  // Configuration appears behind the controller's back — the residue an
  // EMS crash mid-teardown leaves: a stray FXC cross-connect and a tuned
  // OT no connection owns.
  fxc::Fxc& f = s.model->fxc_at(s.model->graph().nodes().front().id);
  ASSERT_TRUE(f.connect(PortId{0}, PortId{1}).ok());
  dwdm::Transponder* ot = s.model->ots().front().get();
  ASSERT_TRUE(ot->tune(3).ok());

  const auto report = run_resync(s);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->leaked_fxc_connects, 1u);
  EXPECT_EQ(report->leaked_ots, 1u);
  EXPECT_EQ(report->drifted_connections, 0u);
  EXPECT_GE(report->repair_commands, 2u);

  // The release commands ran: the plant is clean again.
  EXPECT_EQ(f.active_connections(), 0u);
  EXPECT_EQ(ot->state(), dwdm::Transponder::State::kIdle);
  EXPECT_EQ(s.controller->stats().resync_leaks, 2u);
}

TEST(Resync, DriftedConnectionIsReconfigured) {
  core::TestbedScenario s(9);
  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) {
                      ASSERT_TRUE(r.ok()) << r.error().message();
                      id = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(id.has_value());

  // An EMS restart wiped part of the connection's device state: drop one
  // of its FXC cross-connects directly on the device.
  fxc::Fxc* victim = nullptr;
  std::pair<PortId, PortId> cc;
  for (const auto& node : s.model->graph().nodes()) {
    fxc::Fxc& f = s.model->fxc_at(node.id);
    const auto connects = f.cross_connects();
    if (!connects.empty()) {
      victim = &f;
      cc = connects.front();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(victim->disconnect(cc.first).ok());
  EXPECT_FALSE(victim->connected(cc.first));

  const auto report = run_resync(s);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->drifted_connections, 1u);
  EXPECT_GE(report->repair_commands, 1u);
  // The missing cross-connect was re-issued.
  EXPECT_TRUE(victim->connected(cc.first));
  EXPECT_EQ(s.controller->stats().resync_drift, 1u);

  // The repaired connection releases normally.
  std::optional<Status> released;
  s.portal->disconnect(*id, [&](Status st) { released = st; });
  s.engine.run();
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(released->ok());
  EXPECT_EQ(victim->active_connections(), 0u);
}

TEST(Resync, DriftedSubWavelengthConnectionIsReconfigured) {
  core::TestbedScenario s(9);
  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iv, rates::k1G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) {
                      ASSERT_TRUE(r.ok()) << r.error().message();
                      id = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(id.has_value());
  const core::Connection& c = s.controller->connection(*id);
  ASSERT_EQ(c.kind, core::ConnectionKind::kSubWavelength);
  ASSERT_TRUE(c.odu.valid());

  // The EMS restart wiped the FXC cross-connect that steers the source
  // premises onto its OTN switch client port, and the NTE port at the far
  // end.
  fxc::Fxc& victim = s.model->fxc_at(c.src_pop);
  const auto connects = victim.cross_connects();
  ASSERT_EQ(connects.size(), 1u);
  const std::pair<PortId, PortId> cc = connects.front();
  ASSERT_TRUE(victim.disconnect(cc.first).ok());
  dwdm::Muxponder& nte = s.model->nte(c.dst_site);
  const std::size_t nte_port = c.dst_nte_port;
  ASSERT_TRUE(nte.release_client_port(nte_port).ok());

  const auto report = run_resync(s);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->total_leaks(), 0u);
  EXPECT_EQ(report->drifted_connections, 1u);
  EXPECT_EQ(report->repair_commands, 2u);
  // Both missing pieces were re-issued, the cross-connect onto the same
  // OTN client port.
  EXPECT_TRUE(victim.connected(cc.first));
  EXPECT_EQ(victim.cross_connects(), connects);
  EXPECT_TRUE(nte.port_in_use(nte_port));
  EXPECT_EQ(s.controller->stats().resync_drift, 1u);

  // A second audit finds nothing, and the connection releases normally.
  const auto again = run_resync(s);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->repair_commands, 0u);
  std::optional<Status> released;
  s.portal->disconnect(*id, [&](Status st) { released = st; });
  s.engine.run();
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(released->ok());
  EXPECT_EQ(victim.active_connections(), 0u);
  EXPECT_FALSE(nte.port_in_use(nte_port));
}

// --- breaker integration: dead EMS -> fail fast -> recover ------------------

TEST(BreakerIntegration, DeadEmsTripsBreakerThenServiceRecovers) {
  core::TestbedScenario s(11);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);

  // The ROADM EMS dies for ten minutes. Setup commands against it time
  // out; after the consecutive-timeout threshold the breaker opens and
  // the rest fail fast instead of burning protocol timeouts.
  s.model->roadm_ems().crash_restart(minutes(10));
  std::optional<Result<ConnectionId>> res;
  s.portal->connect(s.site_i, s.site_iii, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) { res = r; });
  s.engine.run_until(minutes(8));
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->ok());
  EXPECT_EQ(s.controller->ems_health().state("roadm-ems"),
            BreakerState::kOpen);
  EXPECT_GE(s.controller->stats().commands_retried, 1u);

  // The transition is visible in the Prometheus exposition.
  const auto* gauge = tel.metrics().find_gauge(
      "griphon_controller_ems_breaker_open", {{"domain", "roadm-ems"}});
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.0);
  EXPECT_NE(
      tel.metrics().to_prometheus().find("griphon_controller_ems_breaker"),
      std::string::npos);

  // EMS restarts (announcing itself with kEmsRestart -> automatic
  // reconciliation); the next connect closes the breaker via the
  // half-open probe and service resumes.
  s.engine.run();
  EXPECT_GE(s.controller->stats().resync_runs, 1u);
  std::optional<ConnectionId> got;
  for (int attempt = 0; attempt < 3 && !got; ++attempt) {
    std::optional<Result<ConnectionId>> r2;
    s.portal->connect(s.site_i, s.site_iii, rates::k10G,
                      core::ProtectionMode::kUnprotected,
                      [&](Result<ConnectionId> r) { r2 = r; });
    s.engine.run();
    ASSERT_TRUE(r2.has_value());
    if (r2->ok()) got = r2->value();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(s.controller->ems_health().state("roadm-ems"),
            BreakerState::kClosed);
  EXPECT_GE(s.controller->ems_health().stats().opens, 1u);
  EXPECT_GE(s.controller->ems_health().stats().closes, 1u);

  std::optional<Status> released;
  s.portal->disconnect(*got, [&](Status st) { released = st; });
  s.engine.run();
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(released->ok());
  EXPECT_TRUE(tel.metrics().invalid_names().empty());
  s.model->attach_telemetry(nullptr);
}

TEST(BreakerIntegration, EventsOfACrashedEmsCarryItsDomainName) {
  core::TestbedScenario s(11);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  s.model->roadm_ems().crash_restart(minutes(10));
  s.portal->connect(s.site_i, s.site_iii, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [](Result<ConnectionId>) {});
  s.engine.run();

  // Retries, the breaker opening while the EMS is down and closing after
  // it is back all name the EMS by its server name: one process row per
  // EMS in a Chrome trace, none for a "roadm-ems-ems".
  const auto retries = tel.events().for_category("retry");
  const auto breaker = tel.events().for_category("breaker");
  ASSERT_FALSE(retries.empty());
  ASSERT_FALSE(breaker.empty());
  for (const auto* e : retries) EXPECT_EQ(e->actor, "roadm-ems");
  for (const auto* e : breaker) EXPECT_EQ(e->actor, "roadm-ems");
  EXPECT_GE(s.controller->ems_health().stats().opens, 1u);
  s.model->attach_telemetry(nullptr);
}

// --- full-stack chaos soaks -------------------------------------------------

bod::ReservationCalendar::Params soak_cal_params() {
  bod::ReservationCalendar::Params p;
  p.slot = minutes(1);
  p.default_link_capacity = rates::k40G;
  return p;
}

bod::AdmissionController::CustomerPolicy soak_policy() {
  bod::AdmissionController::CustomerPolicy policy;
  policy.bandwidth_quota = DataRate::gbps(100);
  policy.requests_per_second = 1000;
  policy.burst = 1000;
  return policy;
}

struct SoakOutcome {
  std::string digest;
  bool ran = false;
};

/// One full-stack run: portal traffic + deadline transfers under an armed
/// fault plan, then disarm, heal, drain, audit. Returns a digest of every
/// observable counter so two same-seed runs can be compared bit-for-bit.
SoakOutcome run_chaos_soak(std::uint64_t seed, const FaultPlan& plan) {
  SoakOutcome out;
  core::TestbedScenario s(seed);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);

  FaultInjector injector(s.model.get(), plan, seed * 7919 + 17);
  injector.set_telemetry(&tel);
  injector.arm();

  // Gauge sampler in manual mode: the soak relies on unbounded engine.run()
  // to drain, which a recurring tick would never let return, so probes are
  // snapshotted at round boundaries instead of on a sim-clock period.
  telemetry::GaugeSampler sampler(&s.engine, &tel);
  core::install_standard_probes(sampler, *s.controller, *s.model);

  bod::ReservationCalendar cal(soak_cal_params());
  bod::AdmissionController adm(&s.engine);
  adm.set_policy(s.csp, soak_policy());
  bod::TransferScheduler::Params sp;
  sp.setup_pad = minutes(8);
  sp.unavailable_defer = seconds(30);
  bod::TransferScheduler sched(s.controller.get(), &cal, &adm, sp);
  sched.register_portal(s.portal.get());
  {
    std::vector<LinkId> links;
    for (const auto& l : s.model->graph().links()) links.push_back(l.id);
    bod::install_calendar_probes(sampler, cal, s.engine, std::move(links));
  }

  const MuxponderId sites[3] = {s.site_i, s.site_iii, s.site_iv};
  std::vector<TransferId> transfers;
  const auto submit = [&](std::size_t a, std::size_t b, std::int64_t bytes,
                          SimTime deadline) {
    bod::TransferScheduler::TransferRequest req;
    req.customer = s.csp;
    req.src_site = sites[a];
    req.dst_site = sites[b];
    req.bytes = bytes;
    req.deadline = deadline;
    const auto r = sched.submit(req);
    if (r.ok()) transfers.push_back(r.value());
  };
  submit(0, 2, 300'000'000'000, hours(3));
  submit(1, 0, 200'000'000'000, hours(2));
  submit(2, 1, 400'000'000'000, hours(4));

  // Mixed foreground traffic while the faults fire.
  Rng rng(seed * 31 + 7);
  std::vector<ConnectionId> live;
  for (int round = 0; round < 30; ++round) {
    if (round == 10) submit(0, 1, 250'000'000'000, s.engine.now() + hours(3));
    const double dice = rng.uniform(0, 1);
    if (dice < 0.45) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, 2));
      auto b = static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (a == b) b = (b + 1) % 3;
      static const DataRate kRates[] = {rates::k1G, rates::k10G};
      static const core::ProtectionMode kProt[] = {core::ProtectionMode::kUnprotected,
                                             core::ProtectionMode::kRestorable};
      s.portal->connect(sites[a], sites[b], kRates[rng.uniform_int(0, 1)],
                        kProt[rng.uniform_int(0, 1)],
                        [&live](Result<ConnectionId> r) {
                          if (r.ok()) live.push_back(r.value());
                        });
    } else if (dice < 0.6 && !live.empty()) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      const ConnectionId id = live[at];
      s.portal->disconnect(id, [&live, id](Status st) {
        if (st.ok()) std::erase(live, id);
      });
    }
    s.engine.run_until(s.engine.now() + from_seconds(rng.uniform(60, 400)));
    sampler.sample_now();
    core::expect_live_index_consistent(*s.controller);
  }

  // Stand the faults down, let every restart / transfer window / retry
  // play out, then drain the plant.
  injector.disarm();
  injector.heal_all();
  s.engine.run();
  core::expect_live_index_consistent(*s.controller);
  for (int attempt = 0; attempt < 6 && !live.empty(); ++attempt) {
    auto remaining = live;
    for (const ConnectionId id : remaining) {
      s.portal->disconnect(id, [&live, id](Status st) {
        if (st.ok() || st.error().code() == ErrorCode::kNotFound)
          std::erase(live, id);
      });
    }
    s.engine.run();
    core::expect_live_index_consistent(*s.controller);
  }
  EXPECT_TRUE(live.empty()) << plan.name << ": undrained connections";
  s.controller->decommission_idle_carriers([](Status) {});
  s.engine.run();

  // Post-chaos audit: sweep whatever the faults leaked until clean.
  for (int i = 0; i < 4; ++i) {
    std::optional<ResyncReport> report;
    s.controller->resync([&](Result<ResyncReport> r) {
      if (r.ok()) report = r.value();
    });
    s.engine.run();
    if (report.has_value() && report->total_leaks() == 0 &&
        report->drifted_connections == 0)
      break;
  }
  core::expect_live_index_consistent(*s.controller);

  // --- invariants: an explicit fate for every transfer ------------------
  for (const TransferId id : transfers) {
    const auto status = sched.inspect(s.csp, id);
    EXPECT_TRUE(status.ok());
    if (!status.ok()) continue;
    const auto state = status.value().state;
    EXPECT_TRUE(state == bod::TransferScheduler::TransferState::kCompleted ||
                state == bod::TransferScheduler::TransferState::kFailed ||
                state == bod::TransferScheduler::TransferState::kCancelled)
        << plan.name << ": transfer " << id.value()
        << " has no terminal state";
  }

  // --- invariants: nothing leaked anywhere in the plant -----------------
  for (const auto& node : s.model->graph().nodes()) {
    EXPECT_EQ(s.model->roadm_at(node.id).active_uses(), 0u)
        << plan.name << ": ROADM at " << node.name << " still configured";
    EXPECT_EQ(s.model->fxc_at(node.id).active_connections(), 0u)
        << plan.name << ": FXC at " << node.name << " still cross-connected";
  }
  for (const auto& ot : s.model->ots())
    EXPECT_NE(ot->state(), dwdm::Transponder::State::kActive)
        << plan.name << ": " << ot->name() << " still active";
  for (const auto& regen : s.model->regens())
    EXPECT_FALSE(regen->in_use())
        << plan.name << ": " << regen->name() << " still engaged";
  const auto slots = s.model->otn().slot_stats();
  EXPECT_EQ(slots.working, 0) << plan.name;
  EXPECT_EQ(s.model->otn().circuit_count(), 0u) << plan.name;
  for (const auto& site : s.model->customer_sites())
    EXPECT_EQ(s.model->nte(site.nte).ports_in_use(), 0u) << plan.name;
  EXPECT_EQ(s.controller->active_connections(), 0u) << plan.name;
  EXPECT_EQ(s.controller->inventory().reservations(), 0u) << plan.name;
  EXPECT_EQ(cal.active_reservations(), 0u) << plan.name;
  EXPECT_EQ(adm.committed(s.csp), DataRate{}) << plan.name;
  EXPECT_EQ(s.portal->provisioned(), DataRate{}) << plan.name;
  EXPECT_TRUE(tel.metrics().invalid_names().empty()) << plan.name;

  // The plan actually did something.
  const auto& is = injector.stats();
  const std::uint64_t total_faults =
      is.nacks_injected + is.slow_commands + is.ems_crashes +
      is.frames_dropped + is.frames_duplicated + is.frames_delayed +
      is.ot_faults + is.fxc_sticks + is.fiber_cuts;
  EXPECT_GT(total_faults, 0u) << plan.name << ": injector never fired";

  // --- determinism digest ----------------------------------------------
  std::ostringstream d;
  d << "now=" << to_seconds(s.engine.now());
  d << " inj=" << is.nacks_injected << "/" << is.slow_commands << "/"
    << is.ems_crashes << "/" << is.frames_dropped << "/"
    << is.frames_duplicated << "/" << is.frames_delayed << "/"
    << is.ot_faults << "/" << is.fxc_sticks << "/" << is.fiber_cuts << "/"
    << is.links_cut << "/" << injector.log().size();
  const auto& cs = s.controller->stats();
  d << " ctl=" << cs.setups_ok << "/" << cs.setups_failed << "/"
    << cs.releases << "/" << cs.commands_issued << "/" << cs.commands_retried
    << "/" << cs.commands_shed << "/" << cs.resync_runs << "/"
    << cs.resync_leaks << "/" << cs.resync_drift;
  const auto& hb = s.controller->ems_health().stats();
  d << " brk=" << hb.opens << "/" << hb.closes << "/" << hb.fast_failures;
  const auto& ss = sched.stats();
  d << " bod=" << ss.submitted << "/" << ss.accepted << "/" << ss.completed
    << "/" << ss.failed << "/" << ss.deadline_met << "/"
    << ss.deadline_missed << "/" << ss.setup_retries << "/"
    << ss.setups_deferred << "/" << ss.reschedules;
  for (const TransferId id : transfers) {
    const auto status = sched.inspect(s.csp, id);
    d << " t" << id.value() << "="
      << (status.ok() ? static_cast<int>(status.value().state) : -1);
  }
  // The chaos-soak CI lane validates these with tools/validate_trace.py
  // and uploads them; only the heaviest plan exports, to keep test output
  // lean. Both same-seed runs write the same bytes (determinism).
  if (plan.name == "combined") {
    if (std::ofstream f("trace_soak_combined.json"); f)
      f << telemetry::TraceExporter().to_json(tel) << "\n";
    if (std::ofstream f("SERIES_soak_combined.json"); f)
      f << sampler.rollups_json();
  }

  s.model->attach_telemetry(nullptr);
  out.digest = d.str();
  out.ran = true;
  return out;
}

class ChaosSoak : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosSoak, InvariantsHoldAndRunsAreDeterministic) {
  const auto plan = FaultPlan::preset(GetParam());
  ASSERT_TRUE(plan.ok());
  const SoakOutcome first = run_chaos_soak(1234, plan.value());
  ASSERT_TRUE(first.ran);
  if (::testing::Test::HasFailure()) return;  // invariant diagnosis first
  const SoakOutcome second = run_chaos_soak(1234, plan.value());
  EXPECT_EQ(first.digest, second.digest)
      << GetParam() << ": same (plan, seed) diverged";
}

INSTANTIATE_TEST_SUITE_P(Plans, ChaosSoak,
                         ::testing::Values("ems-flaps", "channel-loss",
                                           "device-faults", "combined",
                                           "conduit-cut", "failure-storm"));

// --- bridge-and-roll under faults -------------------------------------------

ConnectionId roll_chaos_connect(core::TestbedScenario& s) {
  std::optional<Result<ConnectionId>> res;
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kRestorable,
                    [&](Result<ConnectionId> r) { res = std::move(r); });
  s.engine.run();
  EXPECT_TRUE(res.has_value() && res->ok());
  return res->value();
}

void roll_chaos_disconnect(core::TestbedScenario& s, ConnectionId id) {
  std::optional<Status> done;
  s.portal->disconnect(id, [&](Status st) { done = st; });
  s.engine.run();
  EXPECT_TRUE(done && done->ok());
}

/// Sweep leaked residue (a failed roll may strand tuned optics for resync
/// to reclaim) and require the plant to audit clean within a few passes.
void expect_plant_sweeps_clean(core::TestbedScenario& s) {
  std::optional<ResyncReport> report;
  for (int pass = 0; pass < 4; ++pass) {
    report = run_resync(s);
    ASSERT_TRUE(report.has_value());
    if (report->total_leaks() == 0 && report->drifted_connections == 0)
      break;
  }
  EXPECT_EQ(report->total_leaks(), 0u);
  EXPECT_EQ(report->drifted_connections, 0u);
  core::expect_live_index_consistent(*s.controller);
}

TEST(RollChaos, RollRacesFiberCutOnOldPath) {
  core::TestbedScenario s(21);
  const ConnectionId id = roll_chaos_connect(s);
  const LinkId old_link = s.controller->connection(id).plan.path.links.front();

  // Bridge-and-roll onto a disjoint path, with the in-service span cut
  // out from under the roll shortly after it starts. Whichever way the
  // race lands — roll completes onto the bridge, or it unwinds and
  // restoration takes over — the service must end on exactly one healthy
  // path off the cut span.
  std::optional<Status> rolled;
  s.controller->bridge_and_roll(id, {}, [&](Status st) { rolled = st; });
  s.engine.schedule(milliseconds(200),
                    [&] { s.model->fail_link(old_link); });
  s.engine.run();
  ASSERT_TRUE(rolled.has_value());

  const auto& c = s.controller->connection(id);
  EXPECT_TRUE(c.is_up()) << "state=" << static_cast<int>(c.state);
  EXPECT_FALSE(c.plan.path.uses_link(old_link));
  for (const LinkId l : c.plan.path.links)
    EXPECT_FALSE(s.model->link_failed(l));

  s.model->repair_link(old_link);
  s.engine.run();
  expect_plant_sweeps_clean(s);
  roll_chaos_disconnect(s, id);
}

/// Rejects the first `budget` commands with a retryable kBusy NACK, then
/// behaves. Models a management plane briefly saturated by other work.
struct BusyFirstN final : ems::EmsFaultHook {
  explicit BusyFirstN(int budget) : remaining(budget) {}
  Status on_command(const std::string&, const proto::Message&) override {
    if (remaining <= 0) return Status::success();
    --remaining;
    return Status{ErrorCode::kBusy, "injected: EMS busy"};
  }
  double latency_scale(const std::string&) override { return 1.0; }
  int remaining;
};

TEST(RollChaos, RollRetriesThroughEmsBusyNacksMidBridge) {
  core::TestbedScenario s(22);
  const ConnectionId a = roll_chaos_connect(s);
  const ConnectionId b = roll_chaos_connect(s);
  roll_chaos_disconnect(s, a);  // hole at channel 0, b sits above it

  BusyFirstN hook(2);  // stay under max_attempts: every command recovers
  s.model->roadm_ems().set_fault_hook(&hook);

  reopt::ReoptService service(s.controller.get(), {});
  std::optional<reopt::MigrationExecutor::CampaignReport> report;
  service.run_campaign(
      [&](const reopt::MigrationExecutor::CampaignReport& r) { report = r; });
  s.engine.run();
  s.model->roadm_ems().set_fault_hook(nullptr);

  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->aborted);
  EXPECT_EQ(report->moves_rolled, 1u);
  EXPECT_EQ(report->rolls_failed, 0u);
  EXPECT_EQ(hook.remaining, 0);  // the NACKs really were injected
  EXPECT_GE(s.controller->stats().commands_retried, 2u);
  const auto& c = s.controller->connection(b);
  EXPECT_EQ(c.state, core::ConnectionState::kActive);
  EXPECT_EQ(c.plan.segments[0].channel, 0);
  EXPECT_EQ(c.restorations, 0);
  EXPECT_EQ(c.total_outage, SimTime{});
  expect_plant_sweeps_clean(s);
}

TEST(RollChaos, CampaignAbortsWhenEmsBreakerOpens) {
  core::TestbedScenario s(23);
  const ConnectionId a = roll_chaos_connect(s);
  const ConnectionId b = roll_chaos_connect(s);
  const ConnectionId c = roll_chaos_connect(s);
  roll_chaos_disconnect(s, a);  // two compaction moves: b -> 0, c -> 1

  // The ROADM EMS dies before the campaign starts. The first roll's
  // commands time out; by the time its retries are exhausted the
  // consecutive-timeout breaker is open, and the next pump aborts the
  // campaign instead of feeding moves to a dead management plane.
  s.model->roadm_ems().crash_restart(minutes(30));
  reopt::ReoptService service(s.controller.get(), {});
  std::optional<reopt::MigrationExecutor::CampaignReport> report;
  service.run_campaign(
      [&](const reopt::MigrationExecutor::CampaignReport& r) { report = r; });
  s.engine.run();

  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->aborted);
  EXPECT_NE(report->abort_reason.find("breaker"), std::string::npos);
  EXPECT_EQ(report->moves_rolled, 0u);
  EXPECT_GE(report->moves_failed + report->moves_skipped, 2u);
  EXPECT_GE(s.controller->stats().rolls_failed, 1u);

  // The failed roll unwound: both services still ride their original
  // channels, undisturbed.
  for (const auto& [id, ch] : {std::pair{b, 1}, std::pair{c, 2}}) {
    EXPECT_TRUE(s.controller->connection(id).is_up());
    EXPECT_EQ(s.controller->connection(id).plan.segments[0].channel, ch);
    EXPECT_EQ(s.controller->connection(id).restorations, 0);
  }

  // EMS restarts, announces itself, reconciliation sweeps the residue.
  s.engine.run();
  expect_plant_sweeps_clean(s);
}

}  // namespace
}  // namespace griphon::chaos
