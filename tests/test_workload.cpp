// Tests for the workload generators and the comparison baselines.
#include <gtest/gtest.h>

#include "baseline/sonet_bod.hpp"
#include "baseline/static_provisioning.hpp"
#include "baseline/store_forward.hpp"
#include "core/scenario.hpp"
#include "workload/arrivals.hpp"
#include "workload/bulk_transfer.hpp"
#include "workload/diurnal.hpp"

namespace griphon {
namespace {

TEST(BulkScheduler, JobLifecycle) {
  core::TestbedScenario s(70);
  workload::BulkScheduler sched(&s.engine, s.portal.get());
  std::optional<workload::BulkJob> done;
  const std::int64_t bytes = 9'000'000'000'000;  // 9 TB
  sched.submit(s.site_i, s.site_iv, bytes, rates::k10G,
               [&](const workload::BulkJob& j) { done = j; });
  s.engine.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->failed);
  // 9 TB at 10G = 7200 s + setup/teardown overheads.
  EXPECT_GT(to_seconds(done->completion_time()), 7200.0);
  EXPECT_LT(to_seconds(done->completion_time()), 7200.0 + 300.0);
  // The DAG executor cuts 1-hop setup to ~29 s (sequential was ~62 s); the
  // overhead is still far from free.
  EXPECT_GT(to_seconds(done->setup_overhead()), 20.0);
  EXPECT_EQ(sched.completed(), 1u);
  // Bandwidth was released at completion.
  EXPECT_EQ(s.portal->provisioned(), DataRate{});
}

TEST(BulkScheduler, CompositeRateJob) {
  core::TestbedScenario s(71);
  workload::BulkScheduler sched(&s.engine, s.portal.get());
  std::optional<workload::BulkJob> done;
  sched.submit(s.site_i, s.site_iv, 1'000'000'000'000, DataRate::gbps(12),
               [&](const workload::BulkJob& j) { done = j; });
  s.engine.run();
  ASSERT_TRUE(done && !done->failed);
  // Effective rate is the decomposition total (slightly above 12G); allow
  // for the bundle setup/teardown overhead on top of the fluid time.
  const double secs_at_12g = 1e12 * 8 / 12e9;
  EXPECT_LT(to_seconds(done->completion_time()), secs_at_12g + 200.0);
  EXPECT_GT(to_seconds(done->completion_time()), secs_at_12g * 0.9);
}

TEST(BulkScheduler, FailureReported) {
  core::TestbedScenario s(72);
  // Quota too small for the job's rate.
  core::CustomerPortal tiny(s.controller.get(), s.csp, DataRate::gbps(5));
  workload::BulkScheduler sched(&s.engine, &tiny);
  std::optional<workload::BulkJob> done;
  sched.submit(s.site_i, s.site_iv, 1000, rates::k10G,
               [&](const workload::BulkJob& j) { done = j; });
  s.engine.run();
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->failed);
  EXPECT_EQ(sched.failed(), 1u);
}

TEST(PoissonLoad, GeneratesAndCompletes) {
  core::TestbedScenario s(73);
  workload::PoissonConnectionLoad::Params p;
  p.arrivals_per_hour = 30;
  p.mean_holding = minutes(30);
  p.rate = rates::k1G;  // OTN circuits: fast setup, low resource use
  p.pairs = {{s.site_i, s.site_iv}, {s.site_i, s.site_iii}};
  workload::PoissonConnectionLoad load(&s.engine, s.portal.get(), p);
  load.run_until(hours(6));
  s.engine.run();
  const auto& st = load.stats();
  EXPECT_GT(st.offered, 100u);
  EXPECT_EQ(st.offered, st.accepted + st.blocked + st.errored);
  EXPECT_EQ(st.errored, 0u);
}

TEST(PoissonLoad, HigherLoadBlocksMore) {
  auto run = [](double per_hour) {
    core::TestbedScenario s(74);
    workload::PoissonConnectionLoad::Params p;
    p.arrivals_per_hour = per_hour;
    p.mean_holding = hours(2);
    p.rate = rates::k1G;
    p.pairs = {{s.site_i, s.site_iv}};
    workload::PoissonConnectionLoad load(&s.engine, s.portal.get(), p);
    load.run_until(hours(24));
    s.engine.run();
    return load.stats().blocking_probability();
  };
  EXPECT_LE(run(1.0), run(40.0));
  EXPECT_GT(run(40.0), 0.0);  // NTE has 4 ports; heavy load must block
}

TEST(Diurnal, PeakAndTrough) {
  workload::DiurnalProfile prof(DataRate::gbps(8), DataRate::gbps(2),
                                /*peak_hour=*/20);
  EXPECT_NEAR(prof.demand_at(hours(20)).in_gbps(), 8.0, 0.01);
  EXPECT_NEAR(prof.demand_at(hours(8)).in_gbps(), 2.0, 0.01);
  // Midpoint between peak and trough.
  EXPECT_NEAR(prof.demand_at(hours(14)).in_gbps(), 5.0, 0.01);
  // 24 h periodicity.
  EXPECT_NEAR(prof.demand_at(hours(20 + 24)).in_gbps(), 8.0, 0.01);
}

TEST(Diurnal, LeftoverClampsAtZero) {
  workload::DiurnalProfile prof(DataRate::gbps(12), DataRate::gbps(2), 20);
  EXPECT_EQ(prof.leftover_at(hours(20), DataRate::gbps(10)), DataRate{});
  EXPECT_GT(prof.leftover_at(hours(8), DataRate::gbps(10)),
            DataRate::gbps(7));
}

TEST(StaticProvisioning, LeadTimeIsWeeks) {
  Rng rng(1);
  baseline::StaticProvisioningModel model;
  for (int i = 0; i < 20; ++i) {
    const SimTime t = model.provisioning_time(rng);
    EXPECT_GE(t, hours(24 * 14));
    EXPECT_LE(t, hours(24 * 56));
  }
}

TEST(StaticProvisioning, ColdTransferDominatedByLeadTime) {
  Rng rng(2);
  baseline::StaticProvisioningModel model;
  const SimTime t = model.transfer_cold(1'000'000'000'000, rates::k10G, rng);
  EXPECT_GT(t, hours(24 * 14));
}

TEST(StaticProvisioning, CircuitHours) {
  EXPECT_DOUBLE_EQ(
      baseline::StaticProvisioningModel::circuit_hours(hours(48), 2), 96.0);
}

TEST(ManualRepair, FourToTwelveHours) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const SimTime t = baseline::ManualRepairModel::repair_time(rng);
    EXPECT_GE(t, hours(4));
    EXPECT_LE(t, hours(12));
  }
}

TEST(SonetBod, ProvisionWithinCeiling) {
  sonet::SonetRing ring({NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}}, 192);
  baseline::SonetBodService bod(&ring);
  Rng rng(4);
  auto p = bod.request(NodeId{0}, NodeId{2}, rates::kOc12, rng);
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p.value().granted, rates::kOc12);
  // Electronic provisioning: minutes.
  EXPECT_GE(p.value().provisioning_time, seconds(60));
  EXPECT_LE(p.value().provisioning_time, seconds(180));
  ASSERT_TRUE(bod.release(p.value().circuit).ok());
}

TEST(SonetBod, RejectsAboveCeiling) {
  sonet::SonetRing ring({NodeId{0}, NodeId{1}, NodeId{2}}, 192);
  baseline::SonetBodService bod(&ring);
  Rng rng(4);
  const auto r = bod.request(NodeId{0}, NodeId{1}, rates::k1G, rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

TEST(StoreForward, DirectUsesLeftoverOnly) {
  // 10G pipe, interactive load 2..8G: mean leftover ~5G -> 1 TB takes
  // roughly 1600 s of pure transfer spread over leftover windows.
  baseline::StoreForwardPlanner::Leg leg{
      DataRate::gbps(10),
      workload::DiurnalProfile(DataRate::gbps(8), DataRate::gbps(2), 20)};
  const SimTime t = baseline::StoreForwardPlanner::direct_completion(
      1'000'000'000'000, leg, SimTime{});
  const double full_rate_secs = 1e12 * 8 / 10e9;
  EXPECT_GT(to_seconds(t), full_rate_secs);  // leftover < full pipe
  EXPECT_LT(to_seconds(t), full_rate_secs * 10);
}

TEST(StoreForward, RelayExploitsTimeZones) {
  // Legs peak at different hours: a relay can beat a direct leg that is
  // saturated in the evening.
  using Leg = baseline::StoreForwardPlanner::Leg;
  const Leg congested{DataRate::gbps(10),
                      workload::DiurnalProfile(DataRate::gbps(10),
                                               DataRate::gbps(6), 20)};
  const Leg east{DataRate::gbps(10),
                 workload::DiurnalProfile(DataRate::gbps(9),
                                          DataRate::gbps(1), 20)};
  const Leg west{DataRate::gbps(10),
                 workload::DiurnalProfile(DataRate::gbps(9),
                                          DataRate::gbps(1), 8)};
  const auto plan = baseline::StoreForwardPlanner::best(
      2'000'000'000'000, congested, {{east, west}}, hours(18));
  const SimTime direct = baseline::StoreForwardPlanner::direct_completion(
      2'000'000'000'000, congested, hours(18));
  EXPECT_LE(plan.completion, direct);
}

TEST(StoreForward, RelayNeverBeatsInfiniteLeftover) {
  using Leg = baseline::StoreForwardPlanner::Leg;
  const Leg idle{DataRate::gbps(10),
                 workload::DiurnalProfile(DataRate{}, DataRate{}, 20)};
  const SimTime direct = baseline::StoreForwardPlanner::direct_completion(
      1'000'000'000'000, idle, SimTime{});
  const SimTime relay = baseline::StoreForwardPlanner::relay_completion(
      1'000'000'000'000, idle, idle, SimTime{});
  EXPECT_LE(direct, relay);  // store-then-forward adds at least a step
}

}  // namespace
}  // namespace griphon
