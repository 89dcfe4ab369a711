// Long-horizon soak test.
//
// Days of randomized operations on the US backbone — connects at mixed
// rates and protections, disconnects, fiber cuts and repairs, maintenance
// windows, re-grooming — then a full drain. Invariants checked at the
// end: after every connection is released, no device in the plant holds
// any configuration, no slots or ports leak, and the controller's books
// balance.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "live_index_oracle.hpp"

namespace griphon::core {
namespace {

class SoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakTest, RandomOperationsThenCleanDrain) {
  BackboneScenario::Options opt;
  opt.customers = 2;
  opt.sites_per_customer = 3;
  opt.quota = DataRate::gbps(500);
  opt.config.ots_per_node = 8;
  opt.config.regens_per_node = 6;
  BackboneScenario s(GetParam(), opt);
  Rng rng(GetParam() * 31 + 7);

  std::vector<std::pair<std::size_t, ConnectionId>> live;  // (customer, id)
  std::set<LinkId> cut_links;
  int setups_attempted = 0;

  const auto num_links = s.model->graph().links().size();
  for (int round = 0; round < 60; ++round) {
    const double dice = rng.uniform(0, 1);
    if (dice < 0.45) {
      // Connect: random customer, random distinct site pair, random rate.
      const auto cust =
          static_cast<std::size_t>(rng.uniform_int(0, 1));
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, 2));
      auto b = static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (a == b) b = (b + 1) % 3;
      static const DataRate kRates[] = {rates::k1G, DataRate::gbps(3),
                                        rates::k10G};
      static const ProtectionMode kProt[] = {ProtectionMode::kUnprotected,
                                             ProtectionMode::kRestorable};
      ++setups_attempted;
      s.portals[cust]->connect(
          s.site(cust, a), s.site(cust, b),
          kRates[rng.uniform_int(0, 2)], kProt[rng.uniform_int(0, 1)],
          [&live, cust](Result<ConnectionId> r) {
            if (r.ok()) live.emplace_back(cust, r.value());
          });
    } else if (dice < 0.6 && !live.empty()) {
      // Disconnect a random live connection (may be refused if busy).
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      const auto [cust, id] = live[at];
      s.portals[cust]->disconnect(id, [&live, id = id](Status st) {
        if (st.ok())
          std::erase_if(live, [&](const auto& e) { return e.second == id; });
      });
    } else if (dice < 0.72 && cut_links.size() < 2) {
      // Cut a random link (at most two concurrent cuts).
      const LinkId link{static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<int>(num_links) - 1))};
      if (!s.model->link_failed(link)) {
        s.model->fail_link(link);
        cut_links.insert(link);
      }
    } else if (dice < 0.85 && !cut_links.empty()) {
      // Repair one cut.
      const LinkId link = *cut_links.begin();
      cut_links.erase(cut_links.begin());
      s.model->repair_link(link);
    } else if (dice < 0.93) {
      // Maintenance on a random healthy link.
      const LinkId link{static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<int>(num_links) - 1))};
      if (!s.model->link_failed(link))
        s.controller->prepare_maintenance(link, [](Status) {});
    } else if (!live.empty()) {
      // Re-groom someone.
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      s.controller->regroom(live[at].second, [](Status) {});
    }
    // Let a random slice of time pass (often enough for flows to finish).
    s.engine.run_until(s.engine.now() +
                       from_seconds(rng.uniform(30, 600)));
    expect_live_index_consistent(*s.controller);
  }

  // Repair everything and let all machinery settle.
  for (const LinkId link : cut_links) s.model->repair_link(link);
  s.engine.run();
  expect_live_index_consistent(*s.controller);
  ASSERT_GT(setups_attempted, 10);

  // Drain: release every remaining connection (retrying the busy ones).
  for (int attempt = 0; attempt < 5 && !live.empty(); ++attempt) {
    auto remaining = live;
    for (const auto& [cust, id] : remaining) {
      s.portals[cust]->disconnect(id, [&live, id = id](Status st) {
        if (st.ok())
          std::erase_if(live,
                        [&](const auto& e) { return e.second == id; });
      });
    }
    s.engine.run();
    expect_live_index_consistent(*s.controller);
  }
  ASSERT_TRUE(live.empty());

  // Groomed OTU carriers that lost their last circuit go back to the pool.
  s.controller->decommission_idle_carriers([](Status) {});
  s.engine.run();

  // --- invariants: nothing leaked anywhere in the plant -----------------
  for (const auto& node : s.model->graph().nodes()) {
    EXPECT_EQ(s.model->roadm_at(node.id).active_uses(), 0u)
        << "ROADM at " << node.name << " still configured";
    EXPECT_EQ(s.model->fxc_at(node.id).active_connections(), 0u)
        << "FXC at " << node.name << " still cross-connected";
  }
  for (const auto& ot : s.model->ots())
    EXPECT_NE(ot->state(), dwdm::Transponder::State::kActive)
        << ot->name() << " still active";
  for (const auto& regen : s.model->regens())
    EXPECT_FALSE(regen->in_use()) << regen->name() << " still engaged";
  const auto slots = s.model->otn().slot_stats();
  EXPECT_EQ(slots.working, 0);
  EXPECT_EQ(slots.shared_reserved, 0);
  EXPECT_EQ(s.model->otn().circuit_count(), 0u);
  for (const auto& site : s.model->customer_sites())
    EXPECT_EQ(s.model->nte(site.nte).ports_in_use(), 0u);
  EXPECT_EQ(s.controller->active_connections(), 0u);
  EXPECT_EQ(s.controller->inventory().reservations(), 0u);
  // Books balance: everything set up was either released or failed.
  const auto& st = s.controller->stats();
  EXPECT_EQ(st.setups_ok, st.releases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace griphon::core
