// Tests for the controller's resource view (Inventory) and the routing +
// wavelength assignment engine.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>

#include "core/inventory.hpp"
#include "core/network_model.hpp"
#include "core/rwa.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/builders.hpp"

namespace griphon::core {
namespace {

struct RwaFixture : ::testing::Test {
  RwaFixture()
      : topo(topology::paper_testbed()),
        model(&engine, topo.graph, config()),
        inventory(&model),
        rwa(&model, &inventory, RwaEngine::Params{}) {}

  static NetworkModel::Config config() {
    NetworkModel::Config c;
    c.channels = 8;  // small grid so exhaustion is reachable in tests
    c.ots_per_node = 2;
    c.regens_per_node = 1;
    c.with_otn = false;
    return c;
  }

  sim::Engine engine{1};
  topology::Testbed topo;
  NetworkModel model;
  Inventory inventory;
  RwaEngine rwa;
};

TEST_F(RwaFixture, AvailableChannelsStartFull) {
  EXPECT_EQ(inventory.snapshot()->available_on_link(topo.i_iv).size(), 8u);
}

TEST_F(RwaFixture, DeviceStateReducesAvailability) {
  auto& roadm = model.roadm_at(topo.i);
  const auto degree = roadm.degree_for(topo.i_iv).value();
  ASSERT_TRUE(
      roadm.configure_add_drop(model.roadm_port_of_ot(TransponderId{0}),
                               degree, 3)
          .ok());
  const auto avail = inventory.snapshot()->available_on_link(topo.i_iv);
  EXPECT_EQ(avail.size(), 7u);
  EXPECT_FALSE(avail.contains(3));
}

TEST_F(RwaFixture, RoadmPortsOfDevicesAreDistinctAndUnknownIdsThrow) {
  // Every OT and regen is cabled to its own ports on its site's ROADM.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& ot : model.ots()) {
    const PortId p = model.roadm_port_of_ot(ot->id());
    EXPECT_LT(p.value(), model.roadm_at(ot->site()).port_count());
    EXPECT_TRUE(seen.insert({ot->site().value(), p.value()}).second);
  }
  for (const auto& regen : model.regens()) {
    const auto [a, b] = model.roadm_ports_of_regen(regen->id());
    EXPECT_TRUE(seen.insert({regen->site().value(), a.value()}).second);
    EXPECT_TRUE(seen.insert({regen->site().value(), b.value()}).second);
  }
  EXPECT_THROW((void)model.roadm_port_of_ot(TransponderId{model.ots().size()}),
               std::out_of_range);
  EXPECT_THROW(
      (void)model.roadm_ports_of_regen(RegenId{model.regens().size()}),
      std::out_of_range);
}

TEST_F(RwaFixture, ReservationsReduceAvailability) {
  inventory.reserve_channel(topo.i_iv, 5);
  EXPECT_FALSE(inventory.snapshot()->available_on_link(topo.i_iv).contains(5));
  inventory.release_channel(topo.i_iv, 5);
  EXPECT_TRUE(inventory.snapshot()->available_on_link(topo.i_iv).contains(5));
}

TEST_F(RwaFixture, FailedLinkHasNoChannels) {
  model.fail_link(topo.i_iv);
  EXPECT_TRUE(inventory.snapshot()->available_on_link(topo.i_iv).empty());
}

TEST_F(RwaFixture, OtPoolAccounting) {
  EXPECT_EQ(inventory.snapshot()->free_ot_count(topo.i, rates::k10G), 2u);
  const auto ot = inventory.snapshot()->find_free_ot(topo.i, rates::k10G);
  ASSERT_TRUE(ot.has_value());
  inventory.reserve_ot(*ot);
  const auto reserved = inventory.snapshot();
  EXPECT_EQ(reserved->free_ot_count(topo.i, rates::k10G), 1u);
  EXPECT_NE(reserved->find_free_ot(topo.i, rates::k10G), ot);
  inventory.release_ot(*ot);
  EXPECT_EQ(inventory.snapshot()->free_ot_count(topo.i, rates::k10G), 2u);
}

TEST_F(RwaFixture, TunedOtsStayInPool) {
  const auto ot =
      inventory.snapshot()->find_free_ot(topo.i, rates::k10G).value();
  ASSERT_TRUE(model.ot(ot).tune(3).ok());
  EXPECT_TRUE(
      inventory.snapshot()->find_free_ot(topo.i, rates::k10G).has_value());
  ASSERT_TRUE(model.ot(ot).activate().ok());
  // One of two OTs active: one left.
  EXPECT_EQ(inventory.snapshot()->free_ot_count(topo.i, rates::k10G), 1u);
}

TEST_F(RwaFixture, PlanDirectPath) {
  const auto plan = rwa.plan(topo.i, topo.iv, rates::k10G);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().hops(), 1u);
  EXPECT_EQ(plan.value().segments.size(), 1u);
  EXPECT_EQ(plan.value().segments[0].channel, 0);  // first-fit
  EXPECT_TRUE(plan.value().regens.empty());
  EXPECT_EQ(model.ot(plan.value().src_ot).site(), topo.i);
  EXPECT_EQ(model.ot(plan.value().dst_ot).site(), topo.iv);
}

TEST_F(RwaFixture, PlanAvoidsExcludedLinks) {
  Exclusions avoid;
  avoid.links.insert(topo.i_iv);
  const auto plan = rwa.plan(topo.i, topo.iv, rates::k10G, avoid);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().hops(), 2u);
  EXPECT_FALSE(plan.value().path.uses_link(topo.i_iv));
}

TEST_F(RwaFixture, RouteCacheInvalidatedOnFailureAndRepair) {
  ASSERT_EQ(rwa.plan(topo.i, topo.iv, rates::k10G).value().hops(), 1u);
  // Second call hits the per-pair route cache; same answer.
  ASSERT_EQ(rwa.plan(topo.i, topo.iv, rates::k10G).value().hops(), 1u);
  model.fail_link(topo.i_iv);
  const auto rerouted = rwa.plan(topo.i, topo.iv, rates::k10G);
  ASSERT_TRUE(rerouted.ok());
  EXPECT_FALSE(rerouted.value().path.uses_link(topo.i_iv));
  model.repair_link(topo.i_iv);
  EXPECT_EQ(rwa.plan(topo.i, topo.iv, rates::k10G).value().hops(), 1u);
}

TEST_F(RwaFixture, PlanHonorsWavelengthContinuity) {
  // Block channel 0 on I-III only: a 2-hop I-III-IV plan must then pick a
  // channel free on BOTH links.
  auto& roadm = model.roadm_at(topo.iii);
  const auto d = roadm.degree_for(topo.i_iii).value();
  const auto ports = roadm.add_ports(1);
  ASSERT_TRUE(roadm.configure_add_drop(ports[0], d, 0).ok());
  Exclusions avoid;
  avoid.links.insert(topo.i_iv);
  const auto plan = rwa.plan(topo.i, topo.iv, rates::k10G, avoid);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().segments.size(), 1u);
  EXPECT_EQ(plan.value().segments[0].channel, 1);  // 0 is discontinuous
}

TEST_F(RwaFixture, FallsBackToAlternateRouteWhenSpectrumFull) {
  // Exhaust all 8 channels on the direct I-IV link.
  auto& ri = model.roadm_at(topo.i);
  auto& riv = model.roadm_at(topo.iv);
  const auto di = ri.degree_for(topo.i_iv).value();
  const auto div = riv.degree_for(topo.i_iv).value();
  const auto pi = ri.add_ports(8);
  const auto piv = riv.add_ports(8);
  for (int ch = 0; ch < 8; ++ch) {
    ASSERT_TRUE(ri.configure_add_drop(pi[ch], di, ch).ok());
    ASSERT_TRUE(riv.configure_add_drop(piv[ch], div, ch).ok());
  }
  const auto plan = rwa.plan(topo.i, topo.iv, rates::k10G);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan.value().hops(), 1u);  // routed around the full link
}

TEST_F(RwaFixture, NoOtMeansResourceExhausted) {
  inventory.reserve_ot(TransponderId{0});
  inventory.reserve_ot(TransponderId{1});  // both OTs at node I
  const auto plan = rwa.plan(topo.i, topo.iv, rates::k10G);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), ErrorCode::kResourceExhausted);
}

TEST_F(RwaFixture, SrcEqualsDstRejected) {
  const auto plan = rwa.plan(topo.i, topo.i, rates::k10G);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), ErrorCode::kInvalidArgument);
}

TEST(RwaBackbone, LongPathGetsRegens) {
  sim::Engine engine{1};
  NetworkModel::Config cfg;
  cfg.with_otn = false;
  cfg.regens_per_node = 4;
  NetworkModel model(&engine, topology::us_backbone(), cfg);
  Inventory inv(&model);
  RwaEngine rwa(&model, &inv, RwaEngine::Params{});
  const auto& g = model.graph();
  const auto plan = rwa.plan(*g.find_node("Seattle"),
                             *g.find_node("Princeton"), rates::k10G);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_GE(plan.value().segments.size(), 2u);
  EXPECT_EQ(plan.value().regens.size(), plan.value().segments.size() - 1);
  // Segments may change wavelength at regen sites but each segment's
  // channel must be valid and links must be covered exactly once.
  std::size_t covered = 0;
  for (const auto& seg : plan.value().segments) {
    EXPECT_NE(seg.channel, dwdm::kNoChannel);
    covered += seg.last_link - seg.first_link + 1;
  }
  EXPECT_EQ(covered, plan.value().path.links.size());
}

TEST(RwaPolicy, MostUsedPacksHotChannels) {
  sim::Engine engine{1};
  auto topo = topology::paper_testbed();
  NetworkModel::Config cfg;
  cfg.with_otn = false;
  NetworkModel model(&engine, topo.graph, cfg);
  Inventory inv(&model);
  // Pre-occupy channel 2 on an unrelated link (II-III) so it becomes the
  // network's "hottest" wavelength.
  auto& r2 = model.roadm_at(topo.ii);
  const auto d = r2.degree_for(topo.ii_iii).value();
  const auto ports = r2.add_ports(1);
  ASSERT_TRUE(r2.configure_add_drop(ports[0], d, 2).ok());

  RwaEngine::Params most_used;
  most_used.policy = WavelengthPolicy::kMostUsed;
  RwaEngine rwa(&model, &inv, most_used);
  const auto plan = rwa.plan(topo.i, topo.iv, rates::k10G);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().segments[0].channel, 2);  // reuse the hot channel

  RwaEngine::Params first_fit;  // contrast: first-fit takes channel 0
  RwaEngine rwa_ff(&model, &inv, first_fit);
  EXPECT_EQ(rwa_ff.plan(topo.i, topo.iv, rates::k10G)
                .value()
                .segments[0]
                .channel,
            0);
}

// Property: over many random plans on the backbone, every plan satisfies
// the core RWA invariants.
class RwaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RwaProperty, PlansSatisfyInvariants) {
  sim::Engine engine{GetParam()};
  NetworkModel::Config cfg;
  cfg.with_otn = false;
  cfg.regens_per_node = 4;
  NetworkModel model(&engine, topology::us_backbone(), cfg);
  Inventory inv(&model);
  RwaEngine rwa(&model, &inv, RwaEngine::Params{});
  auto& rng = engine.rng();
  const auto n = static_cast<int>(model.graph().nodes().size());
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId src{static_cast<std::uint64_t>(rng.uniform_int(0, n - 1))};
    const NodeId dst{static_cast<std::uint64_t>(rng.uniform_int(0, n - 1))};
    if (src == dst) continue;
    const auto plan = rwa.plan(src, dst, rates::k10G);
    if (!plan.ok()) continue;
    const auto& p = plan.value();
    // Path endpoints match.
    EXPECT_EQ(p.path.nodes.front(), src);
    EXPECT_EQ(p.path.nodes.back(), dst);
    // Segment channels are available on every segment link.
    const auto snap = inv.snapshot();
    for (const auto& seg : p.segments) {
      for (std::size_t j = seg.first_link; j <= seg.last_link; ++j)
        EXPECT_TRUE(
            snap->available_on_link(p.path.links[j]).contains(seg.channel));
    }
    // Regens sit at the right sites.
    for (std::size_t b = 0; b < p.regens.size(); ++b) {
      const NodeId site = p.path.nodes[p.segments[b].last_link + 1];
      EXPECT_EQ(model.regen(p.regens[b]).site(), site);
    }
    // Transparent segments respect reach.
    for (const auto& seg : p.segments) {
      topology::Path sub;
      sub.nodes.assign(
          p.path.nodes.begin() + static_cast<long>(seg.first_link),
          p.path.nodes.begin() + static_cast<long>(seg.last_link) + 2);
      sub.links.assign(
          p.path.links.begin() + static_cast<long>(seg.first_link),
          p.path.links.begin() + static_cast<long>(seg.last_link) + 1);
      EXPECT_TRUE(
          model.reach().feasible(model.graph(), sub,
                                 dwdm::profile_for(rates::k10G)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RwaProperty, ::testing::Values(2, 4, 6, 8));

TEST_F(RwaFixture, RouteCacheKeysOnExclusions) {
  telemetry::Telemetry tel(&engine);
  model.attach_telemetry(&tel);
  const auto hits = [&] {
    return tel.metrics()
        .find_counter("griphon_rwa_route_cache_hits_total")
        ->value();
  };
  const auto misses = [&] {
    return tel.metrics()
        .find_counter("griphon_rwa_route_cache_misses_total")
        ->value();
  };

  // First query for the bare pair: a miss.
  (void)rwa.candidate_routes(topo.i, topo.iv);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 0u);

  // Same pair, same (empty) exclusions: a hit, same candidate list.
  const auto& bare = rwa.candidate_routes(topo.i, topo.iv);
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);

  // Same pair under an exclusion: a distinct cache entry (miss), and the
  // excluded link is honored.
  Exclusions avoid;
  avoid.links.insert(topo.i_iv);
  const auto& constrained = rwa.candidate_routes(topo.i, topo.iv, avoid);
  EXPECT_EQ(misses(), 2u);
  EXPECT_EQ(hits(), 1u);
  for (const auto& path : constrained)
    EXPECT_FALSE(path.uses_link(topo.i_iv));
  EXPECT_NE(bare.front().links, constrained.front().links);

  // Both entries now resolve from the cache independently.
  (void)rwa.candidate_routes(topo.i, topo.iv);
  (void)rwa.candidate_routes(topo.i, topo.iv, avoid);
  EXPECT_EQ(misses(), 2u);
  EXPECT_EQ(hits(), 3u);

  // A cut keeps every entry (each is exact for its own key), but queries
  // now also ban the cut link, and the constrained entry's routes use
  // I-III: the pair recomputes around the cut.
  model.fail_link(topo.i_iii);
  const auto& around_cut = rwa.candidate_routes(topo.i, topo.iv, avoid);
  EXPECT_EQ(misses(), 3u);
  for (const auto& path : around_cut) {
    EXPECT_FALSE(path.uses_link(topo.i_iv));
    EXPECT_FALSE(path.uses_link(topo.i_iii));
  }

  // The repair evicts only the entry computed while I-III was down; the
  // two entries from before the cut answer again.
  model.repair_link(topo.i_iii);
  (void)rwa.candidate_routes(topo.i, topo.iv);
  (void)rwa.candidate_routes(topo.i, topo.iv, avoid);
  EXPECT_EQ(misses(), 3u);
  EXPECT_EQ(hits(), 5u);
  EXPECT_EQ(tel.metrics()
                .find_counter("griphon_rwa_route_cache_evicted_total")
                ->value(),
            1u);
  model.attach_telemetry(nullptr);
}

TEST_F(RwaFixture, FailureEvictsOnlyRoutesTraversingCutLink) {
  // k=1 keeps each pair's cached candidate set to its shortest route, so
  // pairs have disjoint footprints and selective eviction is observable.
  RwaEngine narrow(&model, &inventory,
                   RwaEngine::Params{WavelengthPolicy::kFirstFit, 1});
  telemetry::Telemetry tel(&engine);
  model.attach_telemetry(&tel);
  const auto counter = [&](const char* name) {
    const auto* c = tel.metrics().find_counter(name);
    return c == nullptr ? 0u : c->value();
  };
  const auto hits = [&] {
    return counter("griphon_rwa_route_cache_hits_total");
  };
  const auto evictions = [&] {
    return counter("griphon_rwa_route_cache_evicted_total");
  };

  (void)narrow.candidate_routes(topo.i, topo.iv);    // route: [i_iv]
  (void)narrow.candidate_routes(topo.i, topo.iii);   // route: [i_iii]
  (void)narrow.candidate_routes(topo.ii, topo.iii);  // route: [ii_iii]
  EXPECT_EQ(hits(), 0u);

  // A cut on I-IV evicts nothing: every entry stays exact for its key.
  // Entries whose routes avoid the cut keep answering for the cut plant,
  // so the hit rate does not collapse on an unrelated failure.
  model.fail_link(topo.i_iv);
  (void)narrow.candidate_routes(topo.i, topo.iii);
  (void)narrow.candidate_routes(topo.ii, topo.iii);
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(evictions(), 0u);
  // The one entry whose route crosses the cut is not reused: the pair
  // recomputes around the cut.
  const auto& rerouted = narrow.candidate_routes(topo.i, topo.iv);
  ASSERT_FALSE(rerouted.empty());
  EXPECT_FALSE(rerouted.front().uses_link(topo.i_iv));
  EXPECT_EQ(hits(), 2u);

  // The repair evicts only the entry computed while I-IV was down. Every
  // entry from before the cut, including the one crossing I-IV, answers
  // again without a Yen's run.
  model.repair_link(topo.i_iv);
  (void)narrow.candidate_routes(topo.i, topo.iii);
  EXPECT_EQ(hits(), 3u);
  EXPECT_EQ(evictions(), 1u);
  EXPECT_EQ(narrow.candidate_routes(topo.i, topo.iv).front().hops(), 1u);
  EXPECT_EQ(hits(), 4u);
  model.attach_telemetry(nullptr);
}

}  // namespace
}  // namespace griphon::core

namespace griphon::core {
namespace {

// Oracle for the route cache: after every cut, repair or query on a
// 50-node mesh, the cached candidates equal an uncached Yen's run under
// the same filter (failed links, excluded links, interior-excluded
// nodes). The op mix revisits a few pairs with exclusion sets drawn from
// their own routes, so exact hits, subset reuse across cuts and
// eviction on repair all take part.
TEST(RwaRouteCache, MatchesUncachedYenUnderCutsRepairsAndExclusions) {
  sim::Engine engine{17};
  Rng rng(17);
  NetworkModel::Config cfg;
  cfg.channels = 8;
  cfg.ots_per_node = 1;
  cfg.regens_per_node = 0;
  cfg.with_otn = false;
  NetworkModel model(&engine, topology::random_mesh(50, 3.2, rng), cfg);
  Inventory inventory(&model);
  RwaEngine rwa(&model, &inventory, RwaEngine::Params{});
  telemetry::Telemetry tel(&engine);
  model.attach_telemetry(&tel);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = tel.metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };

  const auto& g = model.graph();
  const auto n = static_cast<std::int64_t>(g.nodes().size());
  const auto links = static_cast<std::int64_t>(g.links().size());
  const auto uncached = [&](NodeId src, NodeId dst, const Exclusions& ex) {
    const auto filter = [&](const topology::Link& l) {
      if (model.link_failed(l.id) || ex.links.contains(l.id)) return false;
      const auto interior = [&](NodeId v) {
        return v != src && v != dst && ex.nodes.contains(v);
      };
      return !interior(l.a) && !interior(l.b);
    };
    return topology::k_shortest_paths(g, src, dst, 4,
                                      topology::distance_weight(), filter);
  };

  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < 6) {
    const NodeId a{static_cast<std::uint64_t>(rng.uniform_int(0, n - 1))};
    const NodeId b{static_cast<std::uint64_t>(rng.uniform_int(0, n - 1))};
    if (a != b) pairs.emplace_back(a, b);
  }
  for (int op = 0; op < 600; ++op) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.12) {
      model.fail_link(LinkId{static_cast<std::uint64_t>(
          rng.uniform_int(0, links - 1))});
    } else if (roll < 0.22) {
      const auto failed = model.failed_links();
      if (!failed.empty())
        model.repair_link(failed[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(failed.size()) - 1))]);
    }
    const auto [src, dst] = pairs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pairs.size()) - 1))];
    Exclusions ex;
    const auto base = uncached(src, dst, {});
    if (rng.chance(0.5) && !base.empty()) {
      // A link of one of the pair's own routes (so some cached entries
      // cross it and some do not), sometimes plus a random one.
      const auto& path = base[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(base.size()) - 1))];
      ex.links.insert(path.links[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(path.links.size()) - 1))]);
      if (rng.chance(0.3))
        ex.links.insert(LinkId{static_cast<std::uint64_t>(
            rng.uniform_int(0, links - 1))});
    }
    if (rng.chance(0.2))
      ex.nodes.insert(
          NodeId{static_cast<std::uint64_t>(rng.uniform_int(0, n - 1))});
    ASSERT_EQ(rwa.candidate_routes(src, dst, ex), uncached(src, dst, ex))
        << "op " << op;
  }
  // Every path through the cache was taken.
  EXPECT_GT(counter("griphon_rwa_route_cache_hits_total"), 0u);
  EXPECT_GT(counter("griphon_rwa_route_cache_misses_total"), 0u);
  EXPECT_GT(counter("griphon_rwa_route_cache_evicted_total"), 0u);

  // On a fresh cache, an entry computed with no link down survives a cut
  // and repair of a link its own routes use.
  for (const LinkId l : model.failed_links()) model.repair_link(l);
  RwaEngine fresh(&model, &inventory, RwaEngine::Params{});
  const auto [src, dst] = pairs.front();
  const auto crossed =
      fresh.candidate_routes(src, dst).front().links.front();
  const std::uint64_t hits = counter("griphon_rwa_route_cache_hits_total");
  const std::uint64_t misses =
      counter("griphon_rwa_route_cache_misses_total");
  model.fail_link(crossed);
  ASSERT_EQ(fresh.candidate_routes(src, dst), uncached(src, dst, {}));
  EXPECT_EQ(counter("griphon_rwa_route_cache_misses_total"), misses + 1);
  model.repair_link(crossed);
  ASSERT_EQ(fresh.candidate_routes(src, dst), uncached(src, dst, {}));
  EXPECT_EQ(counter("griphon_rwa_route_cache_hits_total"), hits + 1);
  EXPECT_EQ(counter("griphon_rwa_route_cache_misses_total"), misses + 1);
  model.attach_telemetry(nullptr);
}

}  // namespace
}  // namespace griphon::core
