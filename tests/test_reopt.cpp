// Tests for the global re-optimization subsystem: fragmentation scoring,
// first-fit compaction planning (never-worsen contract), dependency-aware
// hitless migration campaigns with cycle breaking, abort semantics, BoD
// exemption and SLO wiring.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/scenario.hpp"
#include "reopt/service.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/builders.hpp"

namespace griphon::reopt {
namespace {

using core::TestbedScenario;

core::NetworkModel::Config small_config() {
  core::NetworkModel::Config c;
  c.channels = 8;
  c.with_otn = false;  // wavelength services only; reopt's domain
  return c;
}

/// Engine-synchronous connect through the scenario portal.
ConnectionId connect_sync(TestbedScenario& s, MuxponderId a, MuxponderId b) {
  std::optional<Result<ConnectionId>> result;
  s.portal->connect(a, b, rates::k10G, core::ProtectionMode::kRestorable,
                    [&](Result<ConnectionId> r) { result = std::move(r); });
  s.engine.run();
  EXPECT_TRUE(result.has_value() && result->ok());
  return result->value();
}

void disconnect_sync(TestbedScenario& s, ConnectionId id) {
  std::optional<Status> done;
  s.portal->disconnect(id, [&](Status st) { done = st; });
  s.engine.run();
  EXPECT_TRUE(done && done->ok());
}

// --- FragmentationAnalyzer --------------------------------------------------

struct AnalyzerFixture : ::testing::Test {
  AnalyzerFixture()
      : topo(topology::paper_testbed()),
        model(&engine, topo.graph, small_config()),
        inventory(&model),
        rwa(&model, &inventory,
            core::RwaEngine::Params{core::WavelengthPolicy::kFirstFit, 1}),
        analyzer(&model) {}

  sim::Engine engine{1};
  topology::Testbed topo;
  core::NetworkModel model;
  core::Inventory inventory;
  core::RwaEngine rwa;
  FragmentationAnalyzer analyzer;
};

TEST_F(AnalyzerFixture, ScoresKnownFragmentationPattern) {
  // Occupy channels 1, 3, 5 on I-IV: free = {0,2,4,6,7}, largest block
  // {6,7} -> score 1 - 2/5 = 0.6.
  inventory.reserve_channel(topo.i_iv, 1);
  inventory.reserve_channel(topo.i_iv, 3);
  inventory.reserve_channel(topo.i_iv, 5);
  const auto report = analyzer.analyze_links(*inventory.snapshot());
  const auto it = std::find_if(
      report.links.begin(), report.links.end(),
      [&](const LinkFragmentation& l) { return l.link == topo.i_iv; });
  ASSERT_NE(it, report.links.end());
  EXPECT_EQ(it->free, 5u);
  EXPECT_EQ(it->used, 3u);
  EXPECT_EQ(it->largest_free_block, 2u);
  EXPECT_NEAR(it->score, 0.6, 1e-9);
  EXPECT_NEAR(report.max_score, 0.6, 1e-9);
  EXPECT_GT(report.mean_score, 0.0);
  EXPECT_EQ(report.fragmented_links, 1u);
}

TEST_F(AnalyzerFixture, ZeroConnectionsProducesFiniteZeroScores) {
  const auto report = analyzer.analyze_links(*inventory.snapshot());
  EXPECT_TRUE(std::isfinite(report.mean_score));
  EXPECT_TRUE(std::isfinite(report.max_score));
  EXPECT_EQ(report.mean_score, 0.0);
  EXPECT_EQ(report.fragmented_links, 0u);
  for (const auto& l : report.links) {
    EXPECT_TRUE(std::isfinite(l.score));
    EXPECT_EQ(l.largest_free_block, l.free);
  }
}

TEST(FragmentationDegenerate, SingleFullLinkTopologyHasNoNaN) {
  sim::Engine engine{1};
  topology::Graph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const LinkId ab = g.add_link(a, b, Distance::km(10), "a-b");
  core::NetworkModel::Config cfg;
  cfg.channels = 4;
  cfg.ots_per_node = 1;
  cfg.regens_per_node = 0;
  cfg.with_otn = false;
  core::NetworkModel model(&engine, g, cfg);
  core::Inventory inventory(&model);
  for (int ch = 0; ch < 4; ++ch) inventory.reserve_channel(ab, ch);
  FragmentationAnalyzer analyzer(&model);
  core::RwaEngine rwa(&model, &inventory, core::RwaEngine::Params{});
  const auto report =
      analyzer.analyze(*inventory.snapshot(), rwa, {{a, b}, {a, a}});
  ASSERT_EQ(report.links.size(), 1u);
  // Completely full link: nothing to defragment, score defined as 0.
  EXPECT_EQ(report.links[0].free, 0u);
  EXPECT_TRUE(std::isfinite(report.links[0].score));
  EXPECT_EQ(report.links[0].score, 0.0);
  EXPECT_TRUE(std::isfinite(report.mean_score));
  // The full route has no per-hop capacity, so it is load-blocked, not
  // continuity-blocked; and the degenerate (a, a) pair is ignored.
  EXPECT_EQ(report.pairs_scored, 1u);
  EXPECT_EQ(report.blocked_candidates, 0u);
  EXPECT_EQ(report.stranded_pairs, 0u);
}

TEST_F(AnalyzerFixture, DetectsContinuityStrandedPair) {
  // With k=1 there is one candidate route II->IV (two hops on this
  // testbed). Give its links disjoint half-spectrums: per-hop capacity
  // everywhere, no end-to-end channel.
  const auto& routes = rwa.candidate_routes(topo.ii, topo.iv);
  ASSERT_EQ(routes.size(), 1u);
  ASSERT_EQ(routes[0].links.size(), 2u);
  for (int ch = 0; ch < 4; ++ch)
    inventory.reserve_channel(routes[0].links[0], ch);
  for (int ch = 4; ch < 8; ++ch)
    inventory.reserve_channel(routes[0].links[1], ch);
  const auto report = analyzer.analyze(*inventory.snapshot(), rwa,
                                       {{topo.ii, topo.iv}});
  EXPECT_EQ(report.pairs_scored, 1u);
  EXPECT_EQ(report.blocked_candidates, 1u);
  EXPECT_EQ(report.stranded_pairs, 1u);
}

// --- FirstFitCompactionSolver ----------------------------------------------

TEST_F(AnalyzerFixture, SolverCompactsToLowestChannelsAndNeverWorsens) {
  const auto& routes = rwa.candidate_routes(topo.i, topo.iv);
  ASSERT_FALSE(routes.empty());
  const topology::Path route = routes.front();
  ASSERT_EQ(route.links.size(), 1u);

  const auto item_at = [&](std::uint64_t id, dwdm::ChannelIndex ch) {
    MoveItem item;
    item.id = ConnectionId{id};
    item.rate = rates::k10G;
    item.current.path = route;
    item.current.segments.push_back(core::SegmentPlan{0, 0, ch});
    inventory.reserve_channel(route.links[0], ch);  // its lit cell
    return item;
  };

  PlanInput input;
  input.model = &model;
  input.items.push_back(item_at(1, 6));
  input.items.push_back(item_at(2, 7));
  input.items.push_back(item_at(3, 0));  // already at the bottom
  input.snap = inventory.snapshot();

  FirstFitCompactionSolver solver;
  const MigrationPlan plan = solver.solve(input);
  ASSERT_EQ(plan.moves.size(), 2u);  // item 3 cannot strictly improve
  for (const Move& m : plan.moves) {
    const auto it = std::find_if(
        input.items.begin(), input.items.end(),
        [&](const MoveItem& i) { return i.id == m.id; });
    ASSERT_NE(it, input.items.end());
    EXPECT_TRUE(move_improves(it->current, m.target));
  }
  // Compaction lands on the lowest free block {1, 2}: distinct targets.
  EXPECT_EQ(plan.moves[0].target.segments[0].channel, 1);
  EXPECT_EQ(plan.moves[1].target.segments[0].channel, 2);
}

// --- GlobalPlanner invariants ----------------------------------------------

/// Deliberately broken solver: moves every item UP one channel.
struct WorseningSolver : ReoptSolver {
  [[nodiscard]] const char* name() const noexcept override { return "bad"; }
  [[nodiscard]] MigrationPlan solve(const PlanInput& input) const override {
    MigrationPlan plan;
    plan.items_considered = input.items.size();
    for (const MoveItem& item : input.items) {
      Move m;
      m.id = item.id;
      m.target = item.current;
      for (auto& seg : m.target.segments) ++seg.channel;
      plan.moves.push_back(std::move(m));
    }
    return plan;
  }
};

TEST(GlobalPlannerTest, RejectsSolverOutputViolatingNeverWorsen) {
  TestbedScenario s(91, small_config());
  const auto id = connect_sync(s, s.site_i, s.site_iv);
  ASSERT_TRUE(id.valid());
  GlobalPlanner planner(s.controller.get());
  planner.set_solver(std::make_unique<WorseningSolver>());
  const MigrationPlan plan = planner.plan({}, 64);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.rejected_by_invariant, 1u);
}

TEST(GlobalPlannerTest, ExemptConnectionsNeverPlanned) {
  TestbedScenario s(92, small_config());
  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);
  disconnect_sync(s, a);  // b now sits above a hole
  GlobalPlanner planner(s.controller.get());
  EXPECT_EQ(planner.plan({}, 64).moves.size(), 1u);
  EXPECT_TRUE(planner.plan({b}, 64).moves.empty());
}

// --- campaigns on the live testbed -----------------------------------------

TEST(ReoptCampaign, CompactsAfterChurnWithoutServiceImpact) {
  TestbedScenario s(93, small_config());
  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);
  disconnect_sync(s, a);
  ASSERT_EQ(s.controller->connection(b).plan.segments[0].channel, 1);

  ReoptService::Params params;
  params.pairs = {{s.topo.i, s.topo.iv}};
  ReoptService service(s.controller.get(), params);
  EXPECT_GT(service.analyze().mean_score, 0.0);

  std::optional<MigrationExecutor::CampaignReport> report;
  service.run_campaign(
      [&](const MigrationExecutor::CampaignReport& r) { report = r; });
  s.engine.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->aborted);
  EXPECT_EQ(report->moves_planned, 1u);
  EXPECT_EQ(report->moves_rolled, 1u);
  EXPECT_EQ(report->rolls_failed, 0u);

  const auto& c = s.controller->connection(b);
  EXPECT_EQ(c.state, core::ConnectionState::kActive);
  EXPECT_EQ(c.plan.segments[0].channel, 0);
  EXPECT_EQ(c.rolls, 1);
  // Hitless: no restoration, no outage, and the controller's roll ledger
  // matches the connection's.
  EXPECT_EQ(c.restorations, 0);
  EXPECT_EQ(c.total_outage, SimTime{});
  EXPECT_EQ(s.controller->stats().rolls_ok, 1u);
  EXPECT_EQ(s.controller->stats().rolls_failed, 0u);
  // Fragmentation strictly improved.
  EXPECT_LT(service.analyze().mean_score, 0.6);

  // Device state reconciles cleanly post-campaign: no leaks, no drift.
  std::optional<Result<core::GriphonController::ResyncReport>> resync;
  s.controller->resync([&](Result<core::GriphonController::ResyncReport> r) {
    resync = std::move(r);
  });
  s.engine.run();
  ASSERT_TRUE(resync && resync->ok());
  EXPECT_EQ(resync->value().total_leaks(), 0u);
  EXPECT_EQ(resync->value().drifted_connections, 0u);
}

TEST(ReoptCampaign, ExecutorHonorsFreedByDependencies) {
  TestbedScenario s(94, small_config());
  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);
  const auto c = connect_sync(s, s.site_i, s.site_iv);
  disconnect_sync(s, a);  // channels now: hole at 0, b on 1, c on 2

  ReoptService::Params params;
  params.executor.max_concurrent_rolls = 4;  // ordering must not rely on it
  ReoptService service(s.controller.get(), params);
  std::optional<MigrationExecutor::CampaignReport> report;
  service.run_campaign(
      [&](const MigrationExecutor::CampaignReport& r) { report = r; });
  s.engine.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->moves_rolled, 2u);
  EXPECT_EQ(report->cycle_breaks, 0u);

  const auto outcome_of = [&](ConnectionId id) {
    return *std::find_if(report->outcomes.begin(), report->outcomes.end(),
                         [&](const MigrationExecutor::MoveOutcome& o) {
                           return o.id == id;
                         });
  };
  // c targets channel 1, which b frees: c may not even launch before b
  // finished its roll.
  EXPECT_GE(outcome_of(c).launched_at, outcome_of(b).finished_at);
  EXPECT_EQ(s.controller->connection(b).plan.segments[0].channel, 0);
  EXPECT_EQ(s.controller->connection(c).plan.segments[0].channel, 1);
}

TEST(ReoptCampaign, BreaksDependencyCycleViaBridgeChannel) {
  TestbedScenario s(95, small_config());
  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);

  // Hand-built swap: a (ch 0) -> ch 1, b (ch 1) -> ch 0. The compaction
  // planner would never emit this, but the executor must survive it: the
  // moves deadlock unless one connection first vacates via a bridge
  // channel high in the spectrum.
  MigrationPlan plan;
  for (const auto& [id, tgt] : {std::pair{a, 1}, std::pair{b, 0}}) {
    Move m;
    m.id = id;
    m.target = s.controller->connection(id).plan;
    m.target.segments[0].channel = tgt;
    plan.moves.push_back(std::move(m));
  }
  MigrationExecutor executor(&s.engine, s.controller.get(),
                             MigrationExecutor::Params{});
  std::optional<MigrationExecutor::CampaignReport> report;
  executor.run(std::move(plan),
               [&](const MigrationExecutor::CampaignReport& r) { report = r; });
  s.engine.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->aborted);
  EXPECT_EQ(report->cycle_breaks, 1u);
  EXPECT_EQ(report->moves_rolled, 2u);
  EXPECT_EQ(report->rolls_ok, 3u);  // scratch hop + two target rolls
  EXPECT_EQ(report->rolls_failed, 0u);
  EXPECT_EQ(s.controller->connection(a).plan.segments[0].channel, 1);
  EXPECT_EQ(s.controller->connection(b).plan.segments[0].channel, 0);
  EXPECT_EQ(s.controller->connection(a).state,
            core::ConnectionState::kActive);
  EXPECT_EQ(s.controller->connection(b).state,
            core::ConnectionState::kActive);
  const bool a_scratch =
      std::find_if(report->outcomes.begin(), report->outcomes.end(),
                   [&](const auto& o) { return o.via_scratch; }) !=
      report->outcomes.end();
  EXPECT_TRUE(a_scratch);
}

TEST(ReoptCampaign, AbortsCleanlyOnFiberCut) {
  TestbedScenario s(96, small_config());
  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);
  const auto c = connect_sync(s, s.site_i, s.site_iv);
  disconnect_sync(s, a);

  ReoptService::Params params;
  // Wide spacing: the cut lands between the first and second launch.
  params.executor.launch_spacing = minutes(5);
  params.executor.max_concurrent_rolls = 1;
  ReoptService service(s.controller.get(), params);
  s.engine.schedule(seconds(30),
                    [&] { s.model->fail_link(s.topo.i_ii); });
  std::optional<MigrationExecutor::CampaignReport> report;
  service.run_campaign(
      [&](const MigrationExecutor::CampaignReport& r) { report = r; });
  s.engine.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->aborted);
  EXPECT_NE(report->abort_reason.find("topology"), std::string::npos);
  // Whatever had launched finished; everything else was left untouched.
  EXPECT_EQ(report->moves_rolled + report->moves_skipped,
            report->moves_planned);
  for (const auto id : {b, c}) {
    EXPECT_EQ(s.controller->connection(id).state,
              core::ConnectionState::kActive);
    EXPECT_EQ(s.controller->connection(id).total_outage, SimTime{});
  }
}

// --- telemetry & SLO --------------------------------------------------------

TEST(ReoptTelemetry, GaugesAndProbesPublishAfterAnalysis) {
  TestbedScenario s(97, small_config());
  telemetry::Telemetry t(&s.engine);
  s.model->attach_telemetry(&t);
  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);
  (void)b;
  disconnect_sync(s, a);

  ReoptService service(s.controller.get(), {});
  telemetry::GaugeSampler sampler(&s.engine);
  service.install_probes(sampler);
  service.analyze();
  sampler.sample_now();
  const auto* gauge =
      t.metrics().find_gauge("griphon_reopt_fragmentation_mean");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value(), 0.0);
  const auto* series = sampler.series("reopt_fragmentation_mean");
  ASSERT_NE(series, nullptr);
  EXPECT_GT(series->rollup().last, 0.0);
}

TEST(ReoptTelemetry, SloObjectiveFreezesWithoutDataThenTrips) {
  TestbedScenario s(98, small_config());
  ReoptService service(s.controller.get(), {});
  telemetry::SloMonitor monitor(&s.engine);
  telemetry::Objective o = fragmentation_objective(service, 0.01);
  o.trip_after = 1;
  monitor.add_objective(std::move(o));
  // No analysis yet: NaN means "no data", which must freeze the streaks
  // rather than trip the alert.
  EXPECT_EQ(monitor.evaluate_now(), 0u);
  EXPECT_EQ(monitor.evaluate_now(), 0u);
  EXPECT_FALSE(monitor.alerting("reopt_fragmentation"));

  const auto a = connect_sync(s, s.site_i, s.site_iv);
  const auto b = connect_sync(s, s.site_i, s.site_iv);
  (void)b;
  disconnect_sync(s, a);
  service.analyze();
  EXPECT_EQ(monitor.evaluate_now(), 1u);
  EXPECT_TRUE(monitor.alerting("reopt_fragmentation"));
}

}  // namespace
}  // namespace griphon::reopt
