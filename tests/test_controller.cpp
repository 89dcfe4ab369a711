// Integration tests for the GRIPhoN controller on the paper's testbed:
// end-to-end setup/teardown over the real EMS/protocol stack, failure
// localization and restoration at both layers, 1+1 protection,
// bridge-and-roll, maintenance, re-grooming, and the customer portal.
#include <gtest/gtest.h>

#include <optional>
#include <variant>
#include <vector>

#include "core/scenario.hpp"
#include "core/step_dag.hpp"
#include "ems/ems_server.hpp"
#include "live_index_oracle.hpp"
#include "proto/messages.hpp"

namespace griphon::core {
namespace {

/// Runs the engine and returns the ConnectionId (or fails the test).
ConnectionId connect_sync(TestbedScenario& s, MuxponderId a, MuxponderId b,
                          DataRate rate, ProtectionMode prot) {
  std::optional<Result<ConnectionId>> result;
  s.portal->connect(a, b, rate, prot,
                    [&](Result<ConnectionId> r) { result = std::move(r); });
  s.engine.run();
  EXPECT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << (result->ok() ? "" : result->error().message());
  return result->value();
}

/// Params reproducing the 2011 testbed's one-dialogue-at-a-time behaviour
/// (the paper's measured 60-70 s setups). The controller now defaults to
/// the DAG executor; paper-band timing tests pin sequential explicitly.
GriphonController::Params sequential_params() {
  GriphonController::Params p;
  p.exec_mode = ExecMode::kSequential;
  return p;
}

TEST(ControllerSetup, WavelengthEndToEnd) {
  TestbedScenario s(42, NetworkModel::Config{}, sequential_params());
  const auto id =
      connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                   ProtectionMode::kRestorable);
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.state, ConnectionState::kActive);
  EXPECT_EQ(c.kind, ConnectionKind::kWavelength);
  EXPECT_EQ(c.plan.path.hops(), 1u);
  // Measured setup time in the paper's band ("60 to 70 seconds").
  EXPECT_GT(to_seconds(c.setup_duration), 55.0);
  EXPECT_LT(to_seconds(c.setup_duration), 75.0);
  // Devices actually configured: both OTs active on the same channel.
  EXPECT_EQ(s.model->ot(c.plan.src_ot).state(),
            dwdm::Transponder::State::kActive);
  EXPECT_EQ(s.model->ot(c.plan.dst_ot).channel(),
            c.plan.segments.front().channel);
  // ROADMs hold the channel on the facing degrees.
  const auto d = s.model->roadm_at(s.topo.i).degree_for(s.topo.i_iv).value();
  EXPECT_TRUE(
      s.model->roadm_at(s.topo.i).channel_in_use(d,
                                                 c.plan.segments[0].channel));
  // FXC patched customer access to the OT at both PoPs.
  EXPECT_EQ(s.model->fxc_at(s.topo.i).active_connections(), 1u);
  EXPECT_EQ(s.model->fxc_at(s.topo.iv).active_connections(), 1u);
  // NTE port claimed at both premises.
  EXPECT_EQ(s.model->nte(s.site_i).ports_in_use(), 1u);
}

TEST(ControllerSetup, TeardownFreesEverything) {
  TestbedScenario s(43, NetworkModel::Config{}, sequential_params());
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kRestorable);
  const auto plan = s.controller->connection(id).plan;
  SimTime start = s.engine.now();
  std::optional<Status> done;
  s.portal->disconnect(id, [&](Status st) { done = st; });
  s.engine.run();
  ASSERT_TRUE(done && done->ok());
  // Teardown takes ~10 s (paper: "Tearing down ... takes around 10 s").
  EXPECT_GT(to_seconds(s.engine.now() - start), 6.0);
  EXPECT_LT(to_seconds(s.engine.now() - start), 16.0);
  EXPECT_EQ(s.controller->connection(id).state, ConnectionState::kReleased);
  // Every resource is back.
  EXPECT_EQ(s.model->roadm_at(s.topo.i).active_uses(), 0u);
  EXPECT_EQ(s.model->fxc_at(s.topo.i).active_connections(), 0u);
  EXPECT_EQ(s.model->nte(s.site_i).ports_in_use(), 0u);
  EXPECT_NE(s.model->ot(plan.src_ot).state(),
            dwdm::Transponder::State::kActive);
}

TEST(ControllerSetup, SubWavelengthRidesOtnLayer) {
  TestbedScenario s(44);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k1G,
                               ProtectionMode::kRestorable);
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.kind, ConnectionKind::kSubWavelength);
  EXPECT_TRUE(c.odu.valid());
  const auto& circuit = s.model->otn().circuit(c.odu);
  EXPECT_EQ(circuit.slots, 1);
  EXPECT_TRUE(circuit.is_protected);
  // Sub-wavelength setup is much faster than a wavelength (electronic).
  EXPECT_LT(to_seconds(c.setup_duration), 20.0);
  // No wavelength-layer resources consumed.
  EXPECT_EQ(s.model->roadm_at(s.topo.i).active_uses(), 0u);
}

TEST(ControllerSetup, SubWavelengthTeardown) {
  TestbedScenario s(45);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k1G,
                               ProtectionMode::kRestorable);
  std::optional<Status> done;
  s.portal->disconnect(id, [&](Status st) { done = st; });
  s.engine.run();
  ASSERT_TRUE(done && done->ok());
  EXPECT_EQ(s.model->otn().circuit_count(), 0u);
  EXPECT_EQ(s.model->otn().slot_stats().working, 0);
  EXPECT_EQ(s.model->fxc_at(s.topo.i).active_connections(), 0u);
}

TEST(ControllerSetup, RateSelectsLayer) {
  TestbedScenario s(46);
  const auto wave = connect_sync(s, s.site_i, s.site_iii, rates::k10G,
                                 ProtectionMode::kRestorable);
  const auto odu = connect_sync(s, s.site_i, s.site_iii, DataRate::gbps(2.5),
                                ProtectionMode::kRestorable);
  EXPECT_EQ(s.controller->connection(wave).kind,
            ConnectionKind::kWavelength);
  EXPECT_EQ(s.controller->connection(odu).kind,
            ConnectionKind::kSubWavelength);
}

TEST(ControllerSetup, ConcurrentRequestsDoNotCollide) {
  TestbedScenario s(47);
  std::vector<ConnectionId> ids;
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                      ProtectionMode::kRestorable,
                      [&](Result<ConnectionId> r) {
                        if (r.ok())
                          ids.push_back(r.value());
                        else
                          ++failures;
                      });
  }
  s.engine.run();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(failures, 0);
  // All three use distinct channels on the shared link and distinct OTs.
  std::set<dwdm::ChannelIndex> channels;
  std::set<TransponderId> ots;
  for (const auto id : ids) {
    const auto& c = s.controller->connection(id);
    channels.insert(c.plan.segments[0].channel);
    ots.insert(c.plan.src_ot);
    ots.insert(c.plan.dst_ot);
  }
  EXPECT_EQ(channels.size(), 3u);
  EXPECT_EQ(ots.size(), 6u);
}

TEST(ControllerSetup, NtePortExhaustionRejected) {
  TestbedScenario s(48);
  // The NTE has 4 client ports; the 5th concurrent connection must fail
  // with a clean error.
  int ok = 0, rejected = 0;
  for (int i = 0; i < 5; ++i) {
    s.portal->connect(s.site_i, s.site_iv, rates::k1G,
                      ProtectionMode::kUnprotected,
                      [&](Result<ConnectionId> r) {
                        r.ok() ? ++ok : ++rejected;
                      });
  }
  s.engine.run();
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(rejected, 1);
}

TEST(ControllerSetup, CrossCustomerSiteRejected) {
  TestbedScenario s(49);
  // A site handle belonging to another customer must be refused.
  auto& foreign =
      s.model->add_customer_site(CustomerId{2}, "DC-EVIL", s.topo.ii);
  std::optional<Error> err;
  ConnectionRequest req;
  req.customer = s.csp;
  req.src_site = s.site_i;
  req.dst_site = foreign.nte;
  req.rate = rates::k10G;
  s.controller->request_connection(
      req, [&](Result<ConnectionId> r) { err = r.error(); });
  s.engine.run();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ErrorCode::kPermissionDenied);
}

TEST(ControllerFailure, WavelengthRestorationReroutes) {
  TestbedScenario s(50);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kRestorable);
  ASSERT_EQ(s.controller->connection(id).plan.path.hops(), 1u);
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.state, ConnectionState::kActive);
  EXPECT_EQ(c.restorations, 1);
  EXPECT_FALSE(c.plan.path.uses_link(s.topo.i_iv));
  // Restoration outage: minutes-scale (localize + re-provision), i.e. far
  // more than 1+1 but far less than 4-12 h manual repair.
  EXPECT_GT(to_seconds(c.total_outage), 30.0);
  EXPECT_LT(to_seconds(c.total_outage), 200.0);
  EXPECT_EQ(s.controller->stats().restorations_ok, 1u);
}

TEST(ControllerFailure, UnprotectedStaysDownUntilRepair) {
  TestbedScenario s(51);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kUnprotected);
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  EXPECT_EQ(s.controller->connection(id).state, ConnectionState::kFailed);
  // Hours later the cable is spliced; light and service return.
  s.engine.run_until(s.engine.now() + hours(6));
  s.model->repair_link(s.topo.i_iv);
  s.engine.run();
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.state, ConnectionState::kActive);
  EXPECT_GT(to_seconds(c.total_outage), 6 * 3600.0 - 60);
}

TEST(ControllerFailure, OnePlusOneSwitchesInMilliseconds) {
  TestbedScenario s(52);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kOnePlusOne);
  const auto& c0 = s.controller->connection(id);
  ASSERT_TRUE(c0.standby.has_value());
  // Legs are link-disjoint.
  for (const LinkId l : c0.standby->path.links)
    EXPECT_FALSE(c0.plan.path.uses_link(l));

  s.model->fail_link(s.topo.i_iv);  // primary leg
  s.engine.run();
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.state, ConnectionState::kActive);
  EXPECT_TRUE(c.traffic_on_standby);
  EXPECT_LT(to_seconds(c.total_outage), 0.2);  // tail-end switch
  EXPECT_EQ(c.restorations, 1);
}

TEST(ControllerFailure, OnePlusOneBothLegsDownThenRepair) {
  TestbedScenario s(53);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kOnePlusOne);
  const auto standby_links = s.controller->connection(id).standby->path.links;
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  for (const LinkId l : standby_links) s.model->fail_link(l);
  s.engine.run();
  EXPECT_EQ(s.controller->connection(id).state, ConnectionState::kFailed);
  s.model->repair_link(s.topo.i_iv);
  s.engine.run();
  EXPECT_EQ(s.controller->connection(id).state, ConnectionState::kActive);
}

TEST(ControllerFailure, OtnMeshRestorationSubSecond) {
  TestbedScenario s(54);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k1G,
                               ProtectionMode::kRestorable);
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.state, ConnectionState::kActive);
  EXPECT_EQ(c.restorations, 1);
  EXPECT_LT(to_seconds(c.total_outage), 1.0);  // shared-mesh, sub-second
  EXPECT_EQ(s.model->otn().circuit(c.odu).state,
            otn::OduCircuit::State::kOnBackup);
}

TEST(ControllerFailure, OtnRevertsAfterRepair) {
  TestbedScenario s(55);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k1G,
                               ProtectionMode::kRestorable);
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  s.model->repair_link(s.topo.i_iv);
  s.engine.run();
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(s.model->otn().circuit(c.odu).state,
            otn::OduCircuit::State::kActive);  // revertive
}

TEST(ControllerFailure, AlarmCorrelationLocalizesOneCut) {
  TestbedScenario s(56);
  (void)connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                     ProtectionMode::kUnprotected);
  (void)connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                     ProtectionMode::kUnprotected);
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  // Two connections x two end ROADMs raised >= 4 raw alarms, but the
  // failure manager localizes exactly one root cause.
  EXPECT_GE(s.controller->failure_manager().alarms_ingested(), 4u);
  EXPECT_EQ(s.controller->failure_manager().believed_failed().size(), 1u);
  EXPECT_TRUE(
      s.controller->failure_manager().believed_failed().contains(s.topo.i_iv));
}

TEST(ControllerRoll, BridgeAndRollMovesTraffic) {
  TestbedScenario s(57);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kRestorable);
  const auto old_plan = s.controller->connection(id).plan;
  std::optional<Status> done;
  Exclusions avoid;
  avoid.links.insert(s.topo.i_iv);
  s.controller->bridge_and_roll(id, avoid, [&](Status st) { done = st; });
  s.engine.run();
  ASSERT_TRUE(done && done->ok()) << done->error().message();
  const auto& c = s.controller->connection(id);
  EXPECT_EQ(c.state, ConnectionState::kActive);
  EXPECT_EQ(c.rolls, 1);
  EXPECT_FALSE(c.plan.path.uses_link(s.topo.i_iv));
  // Resource-disjoint from the old path (paper constraint).
  for (const LinkId l : c.plan.path.links)
    EXPECT_FALSE(old_plan.path.uses_link(l));
  // Old path resources released; connection never went down.
  EXPECT_EQ(to_seconds(c.total_outage), 0.0);
  const auto d = s.model->roadm_at(s.topo.i).degree_for(s.topo.i_iv).value();
  EXPECT_FALSE(s.model->roadm_at(s.topo.i).channel_in_use(
      d, old_plan.segments[0].channel));
}

TEST(ControllerRoll, PrepareMaintenanceClearsSpan) {
  TestbedScenario s(58);
  const auto a = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                              ProtectionMode::kRestorable);
  const auto b = connect_sync(s, s.site_i, s.site_iii, rates::k10G,
                              ProtectionMode::kRestorable);
  std::optional<Status> done;
  s.controller->prepare_maintenance(s.topo.i_iv, [&](Status st) { done = st; });
  s.engine.run();
  ASSERT_TRUE(done && done->ok());
  EXPECT_FALSE(s.controller->connection(a).plan.path.uses_link(s.topo.i_iv));
  EXPECT_EQ(s.controller->connection(b).rolls, 0);  // untouched
  // The span can now fail without any service impact.
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  EXPECT_EQ(s.controller->connection(a).state, ConnectionState::kActive);
  EXPECT_EQ(to_seconds(s.controller->connection(a).total_outage), 0.0);
}

TEST(ControllerRoll, RegroomReturnsToShortPath) {
  TestbedScenario s(59);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kRestorable);
  // Push it off the direct span, then re-groom home.
  Exclusions avoid;
  avoid.links.insert(s.topo.i_iv);
  std::optional<Status> rolled;
  s.controller->bridge_and_roll(id, avoid, [&](Status st) { rolled = st; });
  s.engine.run();
  ASSERT_TRUE(rolled && rolled->ok());
  ASSERT_EQ(s.controller->connection(id).plan.path.hops(), 2u);
  std::optional<Status> regroomed;
  s.controller->regroom(id, [&](Status st) { regroomed = st; });
  s.engine.run();
  ASSERT_TRUE(regroomed && regroomed->ok());
  EXPECT_EQ(s.controller->connection(id).plan.path.hops(), 1u);
  EXPECT_EQ(s.controller->connection(id).rolls, 2);
}

TEST(ControllerRoll, RegroomNoopWhenAlreadyOptimal) {
  TestbedScenario s(60);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kRestorable);
  std::optional<Status> done;
  s.controller->regroom(id, [&](Status st) { done = st; });
  s.engine.run();
  ASSERT_TRUE(done && done->ok());
  EXPECT_EQ(s.controller->connection(id).rolls, 0);
}

TEST(Portal, QuotaEnforced) {
  TestbedScenario s(61);
  CustomerPortal small(s.controller.get(), s.csp, DataRate::gbps(15));
  std::optional<Result<ConnectionId>> first, second;
  small.connect(s.site_i, s.site_iv, rates::k10G,
                ProtectionMode::kRestorable,
                [&](Result<ConnectionId> r) { first = std::move(r); });
  s.engine.run();
  ASSERT_TRUE(first && first->ok());
  small.connect(s.site_i, s.site_iv, rates::k10G,
                ProtectionMode::kRestorable,
                [&](Result<ConnectionId> r) { second = std::move(r); });
  s.engine.run();
  ASSERT_TRUE(second.has_value());
  ASSERT_FALSE(second->ok());
  EXPECT_EQ(second->error().code(), ErrorCode::kPermissionDenied);
}

TEST(Portal, DecompositionMatchesPaperExample) {
  // "2 x 1G OTN circuits and one 10G DWDM to achieve ... 12G instead of
  // consuming a second 10G DWDM."
  const auto d = CustomerPortal::decompose(DataRate::gbps(12));
  EXPECT_EQ(d.wavelengths_10g, 1);
  EXPECT_EQ(d.odu_1g, 2);
  // Pure wavelength rates decompose to waves only.
  const auto w = CustomerPortal::decompose(DataRate::gbps(40));
  EXPECT_EQ(w.wavelengths_10g, 4);
  EXPECT_EQ(w.odu_1g, 0);
  // Large remainders promote to a wave.
  const auto p = CustomerPortal::decompose(DataRate::gbps(19));
  EXPECT_EQ(p.wavelengths_10g, 2);
  EXPECT_EQ(p.odu_1g, 0);
  // Small demands are pure OTN: up to 2G as 1G circuits, above that one
  // ODUflex circuit (a single access port).
  const auto two = CustomerPortal::decompose(DataRate::gbps(2));
  EXPECT_EQ(two.odu_1g, 2);
  EXPECT_TRUE(two.odu_flex.zero());
  const auto o = CustomerPortal::decompose(DataRate::gbps(3));
  EXPECT_EQ(o.wavelengths_10g, 0);
  EXPECT_EQ(o.odu_1g, 0);
  EXPECT_EQ(o.odu_flex, DataRate::gbps(3));
}

TEST(Portal, BundleSetupAndRelease) {
  TestbedScenario s(62);
  std::optional<Result<BundleId>> result;
  s.portal->connect_bundle(s.site_i, s.site_iv, DataRate::gbps(12),
                           ProtectionMode::kRestorable,
                           [&](Result<BundleId> r) { result = std::move(r); });
  s.engine.run();
  ASSERT_TRUE(result && result->ok());
  const auto& bundle = s.portal->bundle(result->value());
  EXPECT_EQ(bundle.parts.size(), 3u);  // 1 wave + 2 ODU
  int waves = 0, odus = 0;
  for (const auto part : bundle.parts) {
    const auto& c = s.controller->connection(part);
    c.kind == ConnectionKind::kWavelength ? ++waves : ++odus;
  }
  EXPECT_EQ(waves, 1);
  EXPECT_EQ(odus, 2);
  EXPECT_EQ(s.portal->provisioned(), DataRate::gbps(12));

  std::optional<Status> released;
  s.portal->disconnect_bundle(result->value(),
                              [&](Status st) { released = st; });
  s.engine.run();
  ASSERT_TRUE(released && released->ok());
  EXPECT_EQ(s.portal->provisioned(), DataRate{});
  EXPECT_EQ(s.model->otn().circuit_count(), 0u);
}

TEST(Portal, ListShowsCustomerView) {
  TestbedScenario s(63);
  (void)connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                     ProtectionMode::kRestorable);
  (void)connect_sync(s, s.site_i, s.site_iii, rates::k1G,
                     ProtectionMode::kRestorable);
  const auto views = s.portal->list();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].src_site, "DC-I");
  EXPECT_EQ(views[0].state, "active");
  EXPECT_EQ(views[0].service, "wavelength");
  EXPECT_EQ(views[1].service, "sub-wavelength");
}

TEST(Controller, ExecModesOrderedByConcurrency) {
  TestbedScenario seq(64, NetworkModel::Config{}, sequential_params());
  TestbedScenario dag(64);  // default params: DAG executor
  const auto a = connect_sync(seq, seq.site_i, seq.site_iv, rates::k10G,
                              ProtectionMode::kRestorable);
  const auto d = connect_sync(dag, dag.site_i, dag.site_iv, rates::k10G,
                              ProtectionMode::kRestorable);
  const double t_seq = to_seconds(seq.controller->connection(a).setup_duration);
  const double t_dag = to_seconds(dag.controller->connection(d).setup_duration);
  // The DAG executor overlaps everything the dependency edges allow and
  // must land well under the sequential chain.
  EXPECT_LT(t_dag, t_seq * 0.7);
  // Same final device state no matter the executor.
  EXPECT_EQ(seq.controller->device_state_digest(),
            dag.controller->device_state_digest());
}

/// Chaos hook for the rollback-ordering regression below: vetoes the first
/// OT activation (non-retryable NACK) to force a mid-setup rollback, then
/// slows the FXC EMS so an out-of-order undo train is caught — if the NTE
/// disable does not wait for its FXC disconnect, the two dialogues start
/// back to back instead of serialized.
struct RollbackOrderProbe final : ems::EmsFaultHook {
  explicit RollbackOrderProbe(sim::Engine* e) : engine(e) {}
  sim::Engine* engine;
  bool armed = true;
  double fxc_scale = 1.0;
  std::optional<SimTime> fxc_disconnect_at;
  std::optional<SimTime> nte_disable_at;

  Status on_command(const std::string&, const proto::Message& m) override {
    if (armed && std::holds_alternative<proto::OtSetState>(m) &&
        std::get<proto::OtSetState>(m).action ==
            proto::OtSetState::Action::kActivate) {
      armed = false;
      fxc_scale = 3.0;  // the rollback now runs against a slow FXC EMS
      return Status{ErrorCode::kDeviceFault, "chaos: activation vetoed"};
    }
    if (std::holds_alternative<proto::FxcDisconnect>(m) && !fxc_disconnect_at)
      fxc_disconnect_at = engine->now();
    if (std::holds_alternative<proto::NtePort>(m) &&
        !std::get<proto::NtePort>(m).engage && !nte_disable_at)
      nte_disable_at = engine->now();
    return Status::success();
  }
  double latency_scale(const std::string& ems) override {
    return ems == "fxc-ems" ? fxc_scale : 1.0;
  }
};

TEST(Controller, RollbackRespectsReverseDependencies) {
  // Regression: an ordering-blind executor once ran the undo train the
  // same way it ran the forward train — every command at once — so an NTE
  // client port could be disabled while its FXC cross-connect was still
  // up. Rollback must run dependency-ordered (undo edges are the forward
  // edges reversed) under every executor.
  for (const ExecMode mode : {ExecMode::kSequential, ExecMode::kDag}) {
    SCOPED_TRACE(mode == ExecMode::kSequential ? "sequential" : "dag");
    GriphonController::Params params;
    params.exec_mode = mode;
    TestbedScenario s(66, NetworkModel::Config{}, params);
    RollbackOrderProbe probe(&s.engine);
    s.model->fxc_ems().set_fault_hook(&probe);
    s.model->roadm_ems().set_fault_hook(&probe);
    s.model->nte_ems().set_fault_hook(&probe);

    std::optional<Result<ConnectionId>> result;
    s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                      ProtectionMode::kUnprotected,
                      [&](Result<ConnectionId> r) { result = std::move(r); });
    s.engine.run();
    ASSERT_TRUE(result.has_value());
    ASSERT_FALSE(result->ok());  // the vetoed activation failed the setup

    // The rollback ran both access undo dialogues, and the NTE disable
    // waited for the (slowed, ~3 s) FXC disconnect to finish. An unordered
    // undo train starts both dialogues at the same instant.
    ASSERT_TRUE(probe.fxc_disconnect_at.has_value());
    ASSERT_TRUE(probe.nte_disable_at.has_value());
    EXPECT_GT(to_seconds(*probe.nte_disable_at - *probe.fxc_disconnect_at),
              2.0);
    // Devices are clean after the rollback.
    EXPECT_EQ(s.model->fxc_at(s.topo.i).active_connections(), 0u);
    EXPECT_EQ(s.model->nte(s.site_i).ports_in_use(), 0u);
    EXPECT_EQ(s.model->roadm_at(s.topo.i).active_uses(), 0u);
  }
}

/// Watches a release train: when an NTE port is disabled, the FXC
/// cross-connect that steered onto it must already be gone. The FXC EMS
/// runs slow, so a train that does not wait for it is caught.
struct ReleaseOrderProbe final : ems::EmsFaultHook {
  struct Access {
    MuxponderId site;
    std::uint32_t nte_port = 0;
    fxc::Fxc* fxc = nullptr;
    PortId fxc_port;
  };
  sim::Engine* engine = nullptr;
  std::vector<Access> access;
  std::optional<SimTime> odu_released_at;
  std::optional<SimTime> first_fxc_disconnect_at;
  std::size_t nte_disables = 0;
  std::size_t nte_disabled_while_steered = 0;

  Status on_command(const std::string&, const proto::Message& m) override {
    if (const auto* op = std::get_if<proto::OtnOp>(&m);
        op != nullptr && op->op == proto::OtnOp::Op::kRelease)
      odu_released_at = engine->now();
    if (std::holds_alternative<proto::FxcDisconnect>(m) &&
        !first_fxc_disconnect_at)
      first_fxc_disconnect_at = engine->now();
    if (const auto* nte = std::get_if<proto::NtePort>(&m);
        nte != nullptr && !nte->engage) {
      ++nte_disables;
      for (const Access& a : access)
        if (a.site == nte->nte && a.nte_port == nte->port &&
            a.fxc->connected(a.fxc_port))
          ++nte_disabled_while_steered;
    }
    return Status::success();
  }
  double latency_scale(const std::string& ems) override {
    return ems == "fxc-ems" ? 3.0 : 1.0;
  }
};

TEST(ControllerRelease, SubWavelengthGoesDarkBeforeItsAccessUnwinds) {
  TestbedScenario s(45);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k1G,
                               ProtectionMode::kRestorable);
  const Connection& c = s.controller->connection(id);
  ASSERT_EQ(c.kind, ConnectionKind::kSubWavelength);

  // The train: ODU release; FXC disconnect at each end after it; each
  // NTE port after the cross-connect that steered it.
  const StepList steps = s.controller->build_release(c);
  ASSERT_EQ(steps.size(), 5u);
  EXPECT_TRUE(std::holds_alternative<proto::OtnOp>(steps[0].forward));
  EXPECT_TRUE(std::holds_alternative<proto::FxcDisconnect>(steps[1].forward));
  EXPECT_TRUE(std::holds_alternative<proto::FxcDisconnect>(steps[2].forward));
  EXPECT_TRUE(std::holds_alternative<proto::NtePort>(steps[3].forward));
  EXPECT_TRUE(std::holds_alternative<proto::NtePort>(steps[4].forward));
  using Ids = std::vector<std::size_t>;
  const StepDag dag(steps);
  EXPECT_EQ(dag.deps_of(0), Ids{});
  EXPECT_EQ(dag.deps_of(1), (Ids{0}));
  EXPECT_EQ(dag.deps_of(2), (Ids{0}));
  EXPECT_EQ(dag.deps_of(3), (Ids{1}));
  EXPECT_EQ(dag.deps_of(4), (Ids{2}));
}

TEST(ControllerRelease, NoNtePortIsDisabledWhileItsFxcStillSteersOntoIt) {
  TestbedScenario s(45);  // default params: DAG executor
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k1G,
                               ProtectionMode::kRestorable);
  const Connection& c = s.controller->connection(id);
  ReleaseOrderProbe probe;
  probe.engine = &s.engine;
  const auto watch = [&](NodeId pop, MuxponderId site, std::size_t port) {
    fxc::Fxc& f = s.model->fxc_at(pop);
    const auto at =
        f.port_for(fxc::Wiring::Kind::kCustomerAccess, site.value(), port);
    ASSERT_TRUE(at.has_value());
    ASSERT_TRUE(f.connected(*at));
    probe.access.push_back(
        {site, static_cast<std::uint32_t>(port), &f, *at});
  };
  watch(c.src_pop, c.src_site, c.src_nte_port);
  watch(c.dst_pop, c.dst_site, c.dst_nte_port);
  s.model->fxc_ems().set_fault_hook(&probe);
  s.model->nte_ems().set_fault_hook(&probe);
  s.model->otn_ems().set_fault_hook(&probe);

  std::optional<Status> done;
  s.portal->disconnect(id, [&](Status st) { done = st; });
  s.engine.run();
  ASSERT_TRUE(done && done->ok());
  EXPECT_EQ(probe.nte_disables, 2u);
  EXPECT_EQ(probe.nte_disabled_while_steered, 0u);
  ASSERT_TRUE(probe.odu_released_at && probe.first_fxc_disconnect_at);
  EXPECT_GT(*probe.first_fxc_disconnect_at, *probe.odu_released_at);
  EXPECT_EQ(s.model->otn().circuit_count(), 0u);
  EXPECT_EQ(s.model->fxc_at(s.topo.i).active_connections(), 0u);
  EXPECT_EQ(s.model->nte(s.site_i).ports_in_use(), 0u);
}

TEST(StepDag, MergesExplicitAndPerElementEdges) {
  // Explicit deps with a duplicate, a self-edge and a forward edge, plus
  // three steps on transponder 1 (implicit per-element chain 0 -> 2 -> 4).
  using proto::Message;
  using Ids = std::vector<std::size_t>;
  StepList steps;
  steps.push_back(Step{nullptr, Message{proto::OtTune{TransponderId{1}, 4}},
                       Message{proto::OtSetState{
                           TransponderId{1},
                           proto::OtSetState::Action::kDeactivate}},
                       {}});
  steps.push_back(
      Step{nullptr, Message{proto::RoadmAddDrop{RoadmId{1}, PortId{6}, 1, 4,
                                                true}},
           Message{proto::RoadmAddDrop{RoadmId{1}, PortId{6}, 1, 4, false}},
           {0, 0}});
  steps.push_back(Step{nullptr,
                       Message{proto::OtSetState{
                           TransponderId{1},
                           proto::OtSetState::Action::kActivate}},
                       std::nullopt,
                       {2, 1}});
  steps.push_back(
      Step{nullptr, Message{proto::FxcConnect{FxcId{3}, PortId{1}, PortId{9}}},
           Message{proto::FxcDisconnect{FxcId{3}, PortId{1}}},
           {4, 1, 1}});
  steps.push_back(Step{nullptr, Message{proto::OtTune{TransponderId{1}, 5}},
                       Message{proto::OtTune{TransponderId{1}, 4}},
                       {0}});
  steps.push_back(Step{nullptr, Message{proto::PowerBalance{LinkId{2}, 4}},
                       Message{proto::PowerBalance{LinkId{2}, 4}},
                       {3}});

  const StepDag dag(steps);
  ASSERT_EQ(dag.size(), 6u);
  EXPECT_EQ(dag.deps_of(0), Ids{});
  EXPECT_EQ(dag.deps_of(1), (Ids{0}));
  EXPECT_EQ(dag.deps_of(2), (Ids{0, 1}));
  EXPECT_EQ(dag.deps_of(3), (Ids{1}));
  EXPECT_EQ(dag.deps_of(4), (Ids{0, 2}));
  EXPECT_EQ(dag.deps_of(5), (Ids{3}));
  EXPECT_EQ(dag.dependents_of(0), (Ids{1, 2, 4}));
  EXPECT_EQ(dag.dependents_of(1), (Ids{2, 3}));
  EXPECT_EQ(dag.dependents_of(2), (Ids{4}));
  EXPECT_EQ(dag.dependents_of(3), (Ids{5}));
  EXPECT_EQ(dag.dependents_of(4), Ids{});
  EXPECT_EQ(dag.dependents_of(5), Ids{});

  // Step 5 never ran; step 2 ran but has no undo, so it passes its
  // dependents' undos through to its own dependencies.
  const StepList undo = build_undo_steps(steps, {4, 0, 3, 1, 2});
  ASSERT_EQ(undo.size(), 4u);  // undos of 4, 3, 1, 0 in that order
  EXPECT_TRUE(std::holds_alternative<proto::OtTune>(undo[0].forward));
  EXPECT_TRUE(std::holds_alternative<proto::FxcDisconnect>(undo[1].forward));
  EXPECT_TRUE(std::holds_alternative<proto::RoadmAddDrop>(undo[2].forward));
  EXPECT_TRUE(std::holds_alternative<proto::OtSetState>(undo[3].forward));
  EXPECT_EQ(undo[0].deps, Ids{});
  EXPECT_EQ(undo[1].deps, Ids{});
  EXPECT_EQ(undo[2].deps, (Ids{0, 1}));
  EXPECT_EQ(undo[3].deps, (Ids{0, 2}));
}

TEST(Controller, StatsTrackOutcomes) {
  TestbedScenario s(65);
  const auto id = connect_sync(s, s.site_i, s.site_iv, rates::k10G,
                               ProtectionMode::kRestorable);
  std::optional<Status> done;
  s.portal->disconnect(id, [&](Status st) { done = st; });
  s.engine.run();
  const auto& st = s.controller->stats();
  EXPECT_EQ(st.setups_ok, 1u);
  EXPECT_EQ(st.releases, 1u);
  EXPECT_GT(st.commands_issued, 10u);
}

/// Vetoes the next `vetoes` OT activations with a non-retryable NACK, so
/// the setup they belong to fails mid-train and rolls back.
struct ActivationVeto final : ems::EmsFaultHook {
  int vetoes = 0;
  Status on_command(const std::string&, const proto::Message& m) override {
    if (vetoes > 0 && std::holds_alternative<proto::OtSetState>(m) &&
        std::get<proto::OtSetState>(m).action ==
            proto::OtSetState::Action::kActivate) {
      --vetoes;
      return Status{ErrorCode::kDeviceFault, "test: activation vetoed"};
    }
    return Status::success();
  }
  double latency_scale(const std::string&) override { return 1.0; }
};

/// Steps the engine until connection `id` reaches `state`, calling
/// `after_event` after every event; false if the event queue drained first.
template <typename AfterEvent>
bool step_until_state(TestbedScenario& s, ConnectionId id,
                      ConnectionState state, AfterEvent after_event) {
  while (s.controller->connection(id).state != state) {
    if (!s.engine.step()) return false;
    after_event();
  }
  return true;
}

TEST(Controller, LiveIndexMatchesHistoryScan) {
  TestbedScenario s(67);
  ActivationVeto veto;
  s.model->roadm_ems().set_fault_hook(&veto);
  // The index is checked against the history after every event.
  const auto check = [&] { expect_live_index_consistent(*s.controller); };
  const auto run = [&] {
    while (s.engine.step()) check();
  };
  const auto connect = [&](MuxponderId from, MuxponderId to, DataRate rate,
                           ProtectionMode prot) {
    std::optional<Result<ConnectionId>> result;
    s.portal->connect(from, to, rate, prot,
                      [&](Result<ConnectionId> r) { result = std::move(r); });
    check();  // kSettingUp, before any command is in flight
    run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(Error{ErrorCode::kInternal, "no callback"});
  };
  check();  // empty controller

  const auto a = connect(s.site_i, s.site_iv, rates::k10G,
                         ProtectionMode::kRestorable);
  ASSERT_TRUE(a.ok());

  // Blocked requests leave kSetupFailed records behind.
  for (int i = 0; i < 2; ++i) {
    veto.vetoes = 1;
    ASSERT_FALSE(connect(s.site_i, s.site_iv, rates::k10G,
                         ProtectionMode::kRestorable)
                     .ok());
  }
  EXPECT_EQ(s.controller->stats().setups_failed, 2u);

  const auto b = connect(s.site_i, s.site_iii, rates::k10G,
                         ProtectionMode::kOnePlusOne);
  const auto p = connect(s.site_iii, s.site_iv, rates::k1G,
                         ProtectionMode::kRestorable);
  const auto r = connect(s.site_iii, s.site_iv, rates::k10G,
                         ProtectionMode::kRestorable);
  ASSERT_TRUE(b.ok() && p.ok() && r.ok());
  EXPECT_EQ(s.controller->connection(p.value()).kind,
            ConnectionKind::kSubWavelength);
  EXPECT_EQ(s.controller->active_connections(), 4u);

  // A roll.
  std::optional<Status> rolled;
  Exclusions avoid;
  avoid.links.insert(s.topo.iii_iv);
  s.controller->bridge_and_roll(r.value(), avoid,
                                [&](Status st) { rolled = st; });
  ASSERT_TRUE(step_until_state(s, r.value(), ConnectionState::kRolling, check));
  run();
  ASSERT_TRUE(rolled && rolled->ok());
  EXPECT_EQ(s.controller->connection(r.value()).rolls, 1);

  // A 1+1 tail-end switch off a cut primary leg, then the repair.
  const Connection& cb = s.controller->connection(b.value());
  const LinkId b_primary = cb.plan.path.links.front();
  s.model->fail_link(b_primary);
  ASSERT_TRUE(step_until_state(s, b.value(), ConnectionState::kFailed, check));
  run();
  EXPECT_EQ(cb.state, ConnectionState::kActive);
  EXPECT_TRUE(cb.traffic_on_standby);
  s.model->repair_link(b_primary);
  run();

  // A cut with wavelength restoration.
  const Connection& ca = s.controller->connection(a.value());
  ASSERT_TRUE(ca.plan.path.uses_link(s.topo.i_iv));
  s.model->fail_link(s.topo.i_iv);
  ASSERT_TRUE(
      step_until_state(s, a.value(), ConnectionState::kRestoring, check));
  run();
  EXPECT_EQ(ca.state, ConnectionState::kActive);
  EXPECT_EQ(ca.restorations, 1);
  s.model->repair_link(s.topo.i_iv);
  run();

  // Releases empty the index; the history keeps every record.
  for (const auto& id : {a, b, p, r}) {
    std::optional<Status> done;
    s.portal->disconnect(id.value(), [&](Status st) { done = st; });
    check();
    run();
    ASSERT_TRUE(done && done->ok());
  }
  EXPECT_TRUE(s.controller->connections_of(s.csp).empty());
  EXPECT_EQ(s.controller->active_connections(), 0u);
  EXPECT_TRUE(s.controller->live_wavelength_connections().empty());
  EXPECT_TRUE(s.controller->quiescent());
  EXPECT_EQ(ca.state, ConnectionState::kReleased);
  s.model->roadm_ems().set_fault_hook(nullptr);
}

TEST(Portal, ProvisionedCountsOnlyLiveConnections) {
  TestbedScenario s(68);
  ActivationVeto veto;
  s.model->roadm_ems().set_fault_hook(&veto);
  CustomerPortal portal(s.controller.get(), s.csp, DataRate::gbps(25));
  const auto connect = [&](ProtectionMode prot) {
    std::optional<Result<ConnectionId>> result;
    portal.connect(s.site_i, s.site_iv, rates::k10G, prot,
                   [&](Result<ConnectionId> r) { result = std::move(r); });
    s.engine.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(Error{ErrorCode::kInternal, "no callback"});
  };

  // A setup that failed and rolled back holds no quota.
  veto.vetoes = 1;
  ASSERT_FALSE(connect(ProtectionMode::kUnprotected).ok());
  EXPECT_EQ(s.controller->stats().setups_failed, 1u);
  EXPECT_EQ(portal.provisioned(), DataRate{});

  const auto down = connect(ProtectionMode::kUnprotected);
  const auto restoring = connect(ProtectionMode::kRestorable);
  ASSERT_TRUE(down.ok() && restoring.ok());
  EXPECT_EQ(portal.provisioned(), DataRate::gbps(20));

  // Failed and restoring connections still hold their bandwidth: a third
  // 10G request is over quota while the outage lasts.
  s.model->fail_link(s.topo.i_iv);
  ASSERT_TRUE(step_until_state(s, restoring.value(),
                               ConnectionState::kRestoring, [] {}));
  EXPECT_EQ(s.controller->connection(down.value()).state,
            ConnectionState::kFailed);
  EXPECT_EQ(portal.provisioned(), DataRate::gbps(20));
  std::optional<Result<ConnectionId>> over;
  portal.connect(s.site_i, s.site_iv, rates::k10G,
                 ProtectionMode::kUnprotected,
                 [&](Result<ConnectionId> r) { over = std::move(r); });
  ASSERT_TRUE(over.has_value() && !over->ok());
  EXPECT_EQ(over->error().code(), ErrorCode::kPermissionDenied);
  s.engine.run();
  EXPECT_EQ(s.controller->connection(restoring.value()).state,
            ConnectionState::kActive);

  // Releasing the failed connection gives its bandwidth back.
  std::optional<Status> released;
  portal.disconnect(down.value(), [&](Status st) { released = st; });
  s.engine.run();
  ASSERT_TRUE(released && released->ok());
  EXPECT_EQ(portal.provisioned(), rates::k10G);
  EXPECT_TRUE(connect(ProtectionMode::kUnprotected).ok());
  EXPECT_EQ(portal.provisioned(), DataRate::gbps(20));
  s.model->roadm_ems().set_fault_hook(nullptr);
}

}  // namespace
}  // namespace griphon::core
