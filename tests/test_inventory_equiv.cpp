// Equivalence property tests for Inventory::Snapshot, the inventory's only
// read path for planning state.
//
// The snapshot's indexed, incrementally-maintained state (per-link net
// availability edited on every reservation, per-site OT/regen pools with
// free bitmaps kept by the model's device observers, the cached
// per-channel usage table, per-link deltas off the model's link observer)
// must agree with the brute-force definitions it replaced: full scans
// over the reservation list, the global OT/regen vectors and every link.
// The references below are verbatim re-implementations of the pre-index
// logic; a seeded random reserve/release/configure/cut/repair workload
// checks agreement between mutations.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "core/inventory.hpp"
#include "core/network_model.hpp"
#include "topology/builders.hpp"

namespace griphon::core {
namespace {

bool ref_ot_is_free(const dwdm::Transponder& ot) {
  return ot.state() == dwdm::Transponder::State::kIdle ||
         ot.state() == dwdm::Transponder::State::kTuned;
}

/// Brute-force mirror of the reservation overlay, kept as the flat
/// containers the seed implementation scanned.
struct ReferenceInventory {
  const NetworkModel* model;
  std::set<std::pair<LinkId, dwdm::ChannelIndex>> reserved_channels;
  std::set<TransponderId> reserved_ots;
  std::set<RegenId> reserved_regens;

  dwdm::ChannelSet available_on_link(LinkId link) const {
    if (model->link_failed(link)) return {};
    const auto& l = model->graph().link(link);
    const auto& ra = model->roadm_at(l.a);
    const auto& rb = model->roadm_at(l.b);
    const auto da = ra.degree_for(link);
    const auto db = rb.degree_for(link);
    if (!da || !db) return {};
    dwdm::ChannelSet set = ra.free_channels(*da);
    set.intersect(rb.free_channels(*db));
    for (const auto& [rlink, ch] : reserved_channels)
      if (rlink == link) set.remove(ch);
    return set;
  }

  std::optional<TransponderId> find_free_ot(NodeId node,
                                            DataRate min_rate) const {
    std::optional<TransponderId> best;
    DataRate best_rate{};
    for (const auto& ot : model->ots()) {
      if (ot->site() != node) continue;
      if (!ref_ot_is_free(*ot)) continue;
      if (ot->line_rate() < min_rate) continue;
      if (reserved_ots.contains(ot->id())) continue;
      if (!best || ot->line_rate() < best_rate) {
        best = ot->id();
        best_rate = ot->line_rate();
      }
    }
    return best;
  }

  std::size_t free_ot_count(NodeId node, DataRate min_rate) const {
    std::size_t n = 0;
    for (const auto& ot : model->ots()) {
      if (ot->site() == node && ref_ot_is_free(*ot) &&
          ot->line_rate() >= min_rate && !reserved_ots.contains(ot->id()))
        ++n;
    }
    return n;
  }

  std::optional<RegenId> find_free_regen(
      NodeId node, DataRate min_rate,
      const std::set<RegenId>& exclude = {}) const {
    for (const auto& regen : model->regens()) {
      if (regen->site() != node) continue;
      if (regen->in_use()) continue;
      if (regen->line_rate() < min_rate) continue;
      if (reserved_regens.contains(regen->id())) continue;
      if (exclude.contains(regen->id())) continue;
      return regen->id();
    }
    return std::nullopt;
  }

  std::size_t free_regen_count(NodeId node, DataRate min_rate) const {
    std::size_t n = 0;
    for (const auto& regen : model->regens()) {
      if (regen->site() == node && !regen->in_use() &&
          regen->line_rate() >= min_rate &&
          !reserved_regens.contains(regen->id()))
        ++n;
    }
    return n;
  }

  std::size_t channel_usage(dwdm::ChannelIndex ch) const {
    std::size_t n = 0;
    for (const auto& link : model->graph().links()) {
      const auto& roadm = model->roadm_at(link.a);
      const auto degree = roadm.degree_for(link.id);
      if (degree && roadm.channel_in_use(*degree, ch)) ++n;
    }
    return n;
  }

  std::size_t reservations() const {
    return reserved_channels.size() + reserved_ots.size() +
           reserved_regens.size();
  }
};

struct EquivFixture {
  explicit EquivFixture(topology::Graph graph, std::uint64_t seed)
      : engine(seed),
        model(&engine, std::move(graph), config()),
        inventory(&model),
        reference{&model, {}, {}, {}},
        rng(seed) {
    // As in the controller: device transitions reach the snapshot's free
    // bitmaps through the model's observers, not through a rescan.
    inventory.attach_device_listeners(&model);
  }

  static NetworkModel::Config config() {
    NetworkModel::Config c;
    c.channels = 16;
    c.ots_per_node = 3;
    c.ots_40g_per_node = 1;
    c.regens_per_node = 2;
    c.with_otn = false;
    return c;
  }

  LinkId random_link() {
    return LinkId{static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(model.graph().links().size()) - 1))};
  }
  NodeId random_node() {
    return NodeId{static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(model.graph().nodes().size()) - 1))};
  }
  PortId random_port(const dwdm::Roadm& roadm) {
    return PortId{static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(roadm.port_count()) - 1))};
  }
  dwdm::ChannelIndex random_channel() {
    return static_cast<dwdm::ChannelIndex>(rng.uniform_int(
        0, static_cast<std::int64_t>(model.grid().count()) - 1));
  }

  /// One random mutation applied to both the indexed inventory and the
  /// brute-force reference (and, for device-state ops, to the plant).
  void step() {
    switch (rng.uniform_int(0, 15)) {
      case 0: {  // reserve a channel
        const LinkId l = random_link();
        const dwdm::ChannelIndex ch = random_channel();
        inventory.reserve_channel(l, ch);
        reference.reserved_channels.emplace(l, ch);
        break;
      }
      case 1: {  // release a channel (possibly not reserved)
        const LinkId l = random_link();
        const dwdm::ChannelIndex ch = random_channel();
        inventory.release_channel(l, ch);
        reference.reserved_channels.erase({l, ch});
        break;
      }
      case 2: {  // reserve an OT
        const auto id = TransponderId{static_cast<std::uint64_t>(
            rng.uniform_int(
                0, static_cast<std::int64_t>(model.ots().size()) - 1))};
        inventory.reserve_ot(id);
        reference.reserved_ots.insert(id);
        break;
      }
      case 3: {  // release an OT
        const auto id = TransponderId{static_cast<std::uint64_t>(
            rng.uniform_int(
                0, static_cast<std::int64_t>(model.ots().size()) - 1))};
        inventory.release_ot(id);
        reference.reserved_ots.erase(id);
        break;
      }
      case 4: {  // reserve a regen
        const auto id = RegenId{static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.regens().size()) - 1))};
        inventory.reserve_regen(id);
        reference.reserved_regens.insert(id);
        break;
      }
      case 5: {  // release a regen
        const auto id = RegenId{static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.regens().size()) - 1))};
        inventory.release_regen(id);
        reference.reserved_regens.erase(id);
        break;
      }
      case 6: {  // device state: express cross-connect (may refuse; fine)
        const LinkId l = random_link();
        const auto& link = model.graph().link(l);
        auto& roadm = model.roadm_at(link.a);
        if (roadm.degree_count() < 2) break;
        const auto in = roadm.degree_for(l);
        const auto out = static_cast<dwdm::DegreeIndex>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(roadm.degree_count()) -
                                1));
        if (in && *in != out)
          (void)roadm.configure_express(random_channel(), *in, out);
        break;
      }
      case 7: {  // device state: release an express cross-connect
        const LinkId l = random_link();
        const auto& link = model.graph().link(l);
        auto& roadm = model.roadm_at(link.a);
        const auto in = roadm.degree_for(l);
        if (!in) break;
        const auto used = roadm.used_channels(*in).to_vector();
        if (used.empty()) break;
        const auto ch = used[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(used.size()) - 1))];
        for (std::size_t d = 0; d < roadm.degree_count(); ++d)
          if (static_cast<dwdm::DegreeIndex>(d) != *in &&
              roadm
                  .release_express(ch, *in,
                                   static_cast<dwdm::DegreeIndex>(d))
                  .ok())
            break;
        break;
      }
      case 8: {  // device state: tune/activate an OT
        const auto id = TransponderId{static_cast<std::uint64_t>(
            rng.uniform_int(
                0, static_cast<std::int64_t>(model.ots().size()) - 1))};
        auto& ot = model.ot(id);
        if (ot.state() == dwdm::Transponder::State::kIdle)
          (void)ot.tune(random_channel());
        else if (ot.state() == dwdm::Transponder::State::kTuned)
          (void)ot.activate();
        break;
      }
      case 9: {  // device state: return an OT to the pool
        const auto id = TransponderId{static_cast<std::uint64_t>(
            rng.uniform_int(
                0, static_cast<std::int64_t>(model.ots().size()) - 1))};
        (void)model.ot(id).reset();
        break;
      }
      case 10: {  // device state: engage a regen (drives the O(1) free bits)
        const auto id = RegenId{static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.regens().size()) - 1))};
        auto& rg = model.regen(id);
        if (!rg.in_use())
          (void)rg.engage(random_channel(), random_channel());
        break;
      }
      case 11: {  // device state: release a regen back to the pool
        const auto id = RegenId{static_cast<std::uint64_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.regens().size()) - 1))};
        (void)model.regen(id).release();
        break;
      }
      case 12:  // plant: cut a fiber (no-op if already down)
        model.fail_link(random_link());
        break;
      case 13:  // plant: repair a fiber (no-op if up)
        model.repair_link(random_link());
        break;
      case 14: {  // device state: add/drop at either end of a link
        const LinkId l = random_link();
        const auto& link = model.graph().link(l);
        auto& roadm = model.roadm_at(rng.chance(0.5) ? link.a : link.b);
        const auto degree = roadm.degree_for(l);
        if (degree)
          (void)roadm.configure_add_drop(random_port(roadm), *degree,
                                         random_channel());
        break;
      }
      case 15: {  // device state: release an add/drop port
        const NodeId node = random_node();
        auto& roadm = model.roadm_at(node);
        (void)roadm.release_add_drop(random_port(roadm));
        break;
      }
      default:
        break;
    }
  }

  /// Full agreement check across every query the RWA hot path makes.
  void check_all() {
    ASSERT_EQ(inventory.reservations(), reference.reservations());
    const auto snap = inventory.snapshot();
    for (const auto& link : model.graph().links()) {
      ASSERT_EQ(snap->available_on_link(link.id),
                reference.available_on_link(link.id))
          << "available_on_link diverged on link " << link.id.value();
      for (dwdm::ChannelIndex ch = 0;
           ch < static_cast<dwdm::ChannelIndex>(model.grid().count()); ++ch)
        ASSERT_EQ(inventory.channel_reserved(link.id, ch),
                  reference.reserved_channels.contains({link.id, ch}));
    }
    for (dwdm::ChannelIndex ch = 0;
         ch < static_cast<dwdm::ChannelIndex>(model.grid().count()); ++ch)
      ASSERT_EQ(snap->channel_usage(ch), reference.channel_usage(ch))
          << "channel_usage diverged on channel " << ch;
    for (const auto& node : model.graph().nodes()) {
      for (const DataRate rate : {rates::k10G, rates::k40G}) {
        ASSERT_EQ(snap->find_free_ot(node.id, rate),
                  reference.find_free_ot(node.id, rate))
            << "find_free_ot diverged at node " << node.id.value();
        ASSERT_EQ(snap->free_ot_count(node.id, rate),
                  reference.free_ot_count(node.id, rate));
        ASSERT_EQ(snap->find_free_regen(node.id, rate),
                  reference.find_free_regen(node.id, rate));
        ASSERT_EQ(snap->free_regen_count(node.id, rate),
                  reference.free_regen_count(node.id, rate))
            << "free_regen_count diverged at node " << node.id.value();
      }
      // Exclusion-aware regen lookup (the RWA multi-boundary case).
      const auto first = snap->find_free_regen(node.id, rates::k10G);
      if (first) {
        const std::set<RegenId> excl{*first};
        ASSERT_EQ(snap->find_free_regen(node.id, rates::k10G, excl),
                  reference.find_free_regen(node.id, rates::k10G, excl));
      }
    }
    // The pool gauges' totals: the sum of the per-site counts at any rate.
    std::size_t ots = 0;
    std::size_t regens = 0;
    for (const auto& node : model.graph().nodes()) {
      ots += reference.free_ot_count(node.id, DataRate{});
      regens += reference.free_regen_count(node.id, DataRate{});
    }
    ASSERT_EQ(snap->free_ot_total(), ots);
    ASSERT_EQ(snap->free_regen_total(), regens);
  }

  sim::Engine engine;
  NetworkModel model;
  Inventory inventory;
  ReferenceInventory reference;
  Rng rng;
};

void run_property(topology::Graph graph, std::uint64_t seed,
                  std::size_t operations, std::size_t check_every) {
  EquivFixture f(std::move(graph), seed);
  f.check_all();
  if (::testing::Test::HasFatalFailure()) return;
  for (std::size_t op = 0; op < operations; ++op) {
    f.step();
    if (op % check_every == 0) {
      f.check_all();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  f.check_all();
}

TEST(InventoryEquivalence, PaperTestbed10kOps) {
  run_property(topology::paper_testbed().graph, 42, 10000, 97);
}

// A snapshot after every single mutation: each reservation edit of the
// net availability, each device-observer bit flip and each link delta
// (cross-connect at either end, cut, repair) is checked right after it
// happens, before a later change to the same link could mask a wrong edit.
TEST(InventoryEquivalence, PaperTestbedEveryOp) {
  run_property(topology::paper_testbed().graph, 4242, 3000, 1);
}

TEST(InventoryEquivalence, UsBackbone10kOps) {
  run_property(topology::us_backbone(), 1337, 10000, 211);
}

TEST(InventoryEquivalence, RandomMeshManySeeds) {
  for (const std::uint64_t seed : {7u, 19u, 23u}) {
    Rng rng(seed);
    run_property(topology::random_mesh(12, 3.0, rng), seed, 4000, 173);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Link failure interacts with availability (failed link -> empty set);
// make sure the snapshot honors it identically.
TEST(InventoryEquivalence, AgreesAcrossLinkFailures) {
  EquivFixture f(topology::paper_testbed().graph, 5);
  for (std::size_t op = 0; op < 2000; ++op) {
    f.step();
    if (op % 200 == 0) {
      const LinkId l = f.random_link();
      if (f.model.link_failed(l))
        f.model.repair_link(l);
      else
        f.model.fail_link(l);
    }
    if (op % 101 == 0) {
      f.check_all();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  f.check_all();
}

}  // namespace
}  // namespace griphon::core
