// Unit tests for the OTN layer: ODU sizing, carrier slot management with
// shared-backup accounting, the switch fabric, end-to-end circuits, and
// shared-mesh restoration (incl. the autonomous restorer).
#include <gtest/gtest.h>

#include "otn/layer.hpp"
#include "otn/odu.hpp"
#include "otn/restorer.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"

namespace griphon::otn {
namespace {

TEST(Odu, SlotCounts) {
  EXPECT_EQ(slots_of(OduLevel::kOdu0), 1);
  EXPECT_EQ(slots_of(OduLevel::kOdu1), 2);
  EXPECT_EQ(slots_of(OduLevel::kOdu2), 8);
  EXPECT_EQ(slots_of(OduLevel::kOdu3), 32);
  EXPECT_EQ(slots_of(OduLevel::kOdu4), 80);
}

TEST(Odu, SlotsForRate) {
  EXPECT_EQ(slots_for_rate(rates::k1G), 1);        // 1GbE fits an ODU0
  EXPECT_EQ(slots_for_rate(rates::k2G5), 3);       // ODUflex sizing
  EXPECT_EQ(slots_for_rate(DataRate::gbps(5)), 5);
  EXPECT_EQ(slots_for_rate(rates::k10G), 9);       // 10G > 8 x 1.244G
}

TEST(Odu, LevelForRate) {
  EXPECT_EQ(level_for_rate(rates::k1G), OduLevel::kOdu0);
  EXPECT_EQ(level_for_rate(rates::kOc48), OduLevel::kOdu1);
  EXPECT_EQ(level_for_rate(rates::k10G), OduLevel::kOdu2);
  EXPECT_EQ(level_for_rate(rates::k40G), OduLevel::kOdu3);
}

TEST(Odu, CarrierSlots) {
  EXPECT_EQ(carrier_slots(rates::k10G), 8);   // OTU2
  EXPECT_EQ(carrier_slots(rates::k40G), 32);  // OTU3
  EXPECT_EQ(carrier_slots(rates::k100G), 80); // OTU4
}

TEST(Carrier, AllocateAndRelease) {
  OtuCarrier c(CarrierId{0}, NodeId{0}, NodeId{1}, rates::k10G, {LinkId{0}});
  EXPECT_EQ(c.total_slots(), 8);
  auto got = c.allocate(OduCircuitId{1}, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 3u);
  EXPECT_EQ(c.allocated_slots(), 3);
  EXPECT_TRUE(c.carries(OduCircuitId{1}));
  ASSERT_TRUE(c.release(OduCircuitId{1}).ok());
  EXPECT_EQ(c.allocated_slots(), 0);
  EXPECT_EQ(c.release(OduCircuitId{1}).error().code(), ErrorCode::kConflict);
}

TEST(Carrier, ExhaustionRejected) {
  OtuCarrier c(CarrierId{0}, NodeId{0}, NodeId{1}, rates::k10G, {LinkId{0}});
  ASSERT_TRUE(c.allocate(OduCircuitId{1}, 8).ok());
  EXPECT_EQ(c.allocate(OduCircuitId{2}, 1).error().code(),
            ErrorCode::kResourceExhausted);
}

TEST(Carrier, SharedBackupPoolIsWorstCaseNotSum) {
  OtuCarrier c(CarrierId{0}, NodeId{0}, NodeId{1}, rates::k10G, {LinkId{9}});
  // Two circuits with DISJOINT primary risks share the reservation.
  ASSERT_TRUE(c.reserve_backup(OduCircuitId{1}, {LinkId{1}}, 4).ok());
  ASSERT_TRUE(c.reserve_backup(OduCircuitId{2}, {LinkId{2}}, 4).ok());
  EXPECT_EQ(c.shared_reserved_slots(), 4);  // max, not 8
  // A third circuit sharing risk Link1 pushes that risk to 8.
  ASSERT_TRUE(c.reserve_backup(OduCircuitId{3}, {LinkId{1}}, 4).ok());
  EXPECT_EQ(c.shared_reserved_slots(), 8);
  // Now the carrier is fully committed to backups.
  EXPECT_EQ(c.usable_free_slots(), 0);
  EXPECT_FALSE(c.can_reserve_backup({LinkId{1}}, 1));
  // A disjoint risk still fits inside the worst-case pool: that is exactly
  // the sharing that makes mesh protection cheaper than 1+1.
  EXPECT_TRUE(c.can_reserve_backup({LinkId{3}}, 1));
}

TEST(Carrier, BackupReservationInteractsWithWorking) {
  OtuCarrier c(CarrierId{0}, NodeId{0}, NodeId{1}, rates::k10G, {LinkId{9}});
  ASSERT_TRUE(c.allocate(OduCircuitId{1}, 5).ok());
  EXPECT_TRUE(c.can_reserve_backup({LinkId{1}}, 3));
  EXPECT_FALSE(c.can_reserve_backup({LinkId{1}}, 4));
  ASSERT_TRUE(c.reserve_backup(OduCircuitId{2}, {LinkId{1}}, 3).ok());
  EXPECT_EQ(c.usable_free_slots(), 0);
  ASSERT_TRUE(c.release_backup(OduCircuitId{2}).ok());
  EXPECT_EQ(c.usable_free_slots(), 3);
}

TEST(Carrier, DuplicateBackupRejected) {
  OtuCarrier c(CarrierId{0}, NodeId{0}, NodeId{1}, rates::k10G, {LinkId{9}});
  ASSERT_TRUE(c.reserve_backup(OduCircuitId{1}, {LinkId{1}}, 1).ok());
  EXPECT_EQ(c.reserve_backup(OduCircuitId{1}, {LinkId{2}}, 1).error().code(),
            ErrorCode::kConflict);
}

TEST(Carrier, RidesLink) {
  OtuCarrier c(CarrierId{0}, NodeId{0}, NodeId{1}, rates::k10G,
               {LinkId{3}, LinkId{4}});
  EXPECT_TRUE(c.rides_link(LinkId{3}));
  EXPECT_TRUE(c.rides_link(LinkId{4}));
  EXPECT_FALSE(c.rides_link(LinkId{5}));
}

TEST(OtnSwitch, ClientPortsAndXconnects) {
  OtnSwitch sw(OtnSwitchId{0}, NodeId{0}, 4);
  sw.attach_carrier(CarrierId{9});
  EXPECT_TRUE(sw.has_carrier(CarrierId{9}));
  auto port = sw.allocate_client_port();
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(sw.xconnect(OduCircuitId{1},
                          Endpoint{ClientEndpoint{port.value()}},
                          Endpoint{LineEndpoint{CarrierId{9}, {0, 1}}})
                  .ok());
  EXPECT_TRUE(sw.has_xconnect(OduCircuitId{1}));
  // Duplicate circuit rejected; unknown carrier rejected.
  EXPECT_EQ(sw.xconnect(OduCircuitId{1}, Endpoint{ClientEndpoint{0}},
                        Endpoint{LineEndpoint{CarrierId{9}, {2}}})
                .error()
                .code(),
            ErrorCode::kConflict);
  EXPECT_EQ(sw.xconnect(OduCircuitId{2}, Endpoint{ClientEndpoint{0}},
                        Endpoint{LineEndpoint{CarrierId{5}, {0}}})
                .error()
                .code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(sw.release_xconnect(OduCircuitId{1}).ok());
  EXPECT_FALSE(sw.has_xconnect(OduCircuitId{1}));
}

TEST(OtnSwitch, XconnectRequiresAllocatedClientPort) {
  OtnSwitch sw(OtnSwitchId{0}, NodeId{0}, 4);
  sw.attach_carrier(CarrierId{1});
  EXPECT_EQ(sw.xconnect(OduCircuitId{1}, Endpoint{ClientEndpoint{2}},
                        Endpoint{LineEndpoint{CarrierId{1}, {0}}})
                .error()
                .code(),
            ErrorCode::kConflict);
}

/// Testbed-shaped OTN layer: switches everywhere, one 10G carrier per link.
struct LayerFixture {
  topology::Testbed t = topology::paper_testbed();
  OtnLayer layer{&t.graph};
  LayerFixture() {
    for (const auto& n : t.graph.nodes()) layer.add_switch(n.id, 8);
    for (const auto& l : t.graph.links())
      (void)layer.add_carrier(l.a, l.b, rates::k10G, {l.id});
  }
};

TEST(OtnLayer, CreateCircuitDirectPath) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, false};
  auto id = f.layer.create_circuit(spec);
  ASSERT_TRUE(id.ok());
  const auto& c = f.layer.circuit(id.value());
  EXPECT_EQ(c.slots, 1);
  EXPECT_EQ(c.primary.size(), 1u);  // direct I-IV carrier
  EXPECT_EQ(c.state, OduCircuit::State::kActive);
  // Fabric xconnects installed at both ends.
  EXPECT_TRUE(f.layer.switch_at(f.t.i)->has_xconnect(id.value()));
  EXPECT_TRUE(f.layer.switch_at(f.t.iv)->has_xconnect(id.value()));
}

TEST(OtnLayer, ProtectedCircuitReservesDisjointBackup) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, true};
  auto id = f.layer.create_circuit(spec);
  ASSERT_TRUE(id.ok());
  const auto& c = f.layer.circuit(id.value());
  ASSERT_FALSE(c.backup.empty());
  // Backup carriers must not ride any primary risk link.
  for (const CarrierId b : c.backup) {
    for (const CarrierId p : c.primary) {
      for (const LinkId risk : f.layer.carrier(p).physical_route())
        EXPECT_FALSE(f.layer.carrier(b).rides_link(risk));
    }
    EXPECT_TRUE(f.layer.carrier(b).has_backup_reservation(id.value()));
  }
}

TEST(OtnLayer, CapacityExhaustionBlocksCircuit) {
  LayerFixture f;
  // Fill the direct I-IV carrier plus alternatives with 10G circuits...
  OtnLayer::CircuitSpec big{CustomerId{1}, f.t.i, f.t.iv,
                            DataRate::gbps(9.9), false};
  // 9.9G needs 8 slots = a whole OTU2. There are limited distinct routes;
  // keep creating until exhaustion.
  int created = 0;
  while (true) {
    auto r = f.layer.create_circuit(big);
    if (!r.ok()) {
      EXPECT_EQ(r.error().code(), ErrorCode::kUnreachable);
      break;
    }
    ++created;
    ASSERT_LT(created, 10);
  }
  EXPECT_GE(created, 2);  // direct + at least one groomed alternative
}

TEST(OtnLayer, FailoverToBackupAndRevert) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, true};
  const auto id = f.layer.create_circuit(spec).value();

  const auto affected = f.layer.on_link_failed(f.t.i_iv);
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kFailed);

  ASSERT_TRUE(f.layer.activate_backup(id).ok());
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kOnBackup);
  // Slots now held on the backup carriers.
  for (const CarrierId b : f.layer.circuit(id).backup)
    EXPECT_TRUE(f.layer.carrier(b).carries(id));

  const auto eligible = f.layer.on_link_repaired(f.t.i_iv);
  ASSERT_EQ(eligible.size(), 1u);
  ASSERT_TRUE(f.layer.revert_to_primary(id).ok());
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kActive);
  for (const CarrierId b : f.layer.circuit(id).backup)
    EXPECT_FALSE(f.layer.carrier(b).carries(id));
}

TEST(OtnLayer, UnprotectedCircuitCannotActivateBackup) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, false};
  const auto id = f.layer.create_circuit(spec).value();
  (void)f.layer.on_link_failed(f.t.i_iv);
  EXPECT_EQ(f.layer.activate_backup(id).error().code(), ErrorCode::kConflict);
}

TEST(OtnLayer, RepairWithoutFailoverResumesInPlace) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, false};
  const auto id = f.layer.create_circuit(spec).value();
  (void)f.layer.on_link_failed(f.t.i_iv);
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kFailed);
  const auto eligible = f.layer.on_link_repaired(f.t.i_iv);
  ASSERT_EQ(eligible.size(), 1u);
  ASSERT_TRUE(f.layer.revert_to_primary(id).ok());
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kActive);
  // No double-allocation happened: the direct carrier holds exactly 1 slot.
  int held = 0;
  for (const auto& carrier : f.layer.carriers())
    if (carrier.carries(id)) held += 1;
  EXPECT_EQ(held, 1);
  EXPECT_EQ(f.layer.slot_stats().working, 1);
}

TEST(OtnLayer, PreemptiveSwitchForMaintenance) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, true};
  const auto id = f.layer.create_circuit(spec).value();
  ASSERT_TRUE(f.layer.preemptive_switch(id).ok());
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kOnBackup);
  // Double switch rejected.
  EXPECT_FALSE(f.layer.preemptive_switch(id).ok());
}

TEST(OtnLayer, ReleaseFreesEverything) {
  LayerFixture f;
  OtnLayer::CircuitSpec spec{CustomerId{1}, f.t.i, f.t.iv, rates::k1G, true};
  const auto id = f.layer.create_circuit(spec).value();
  ASSERT_TRUE(f.layer.release_circuit(id).ok());
  EXPECT_EQ(f.layer.circuit_count(), 0u);
  const auto stats = f.layer.slot_stats();
  EXPECT_EQ(stats.working, 0);
  EXPECT_EQ(stats.shared_reserved, 0);
  EXPECT_EQ(f.layer.switch_at(f.t.i)->client_ports_in_use(), 0u);
  EXPECT_EQ(f.layer.release_circuit(id).error().code(), ErrorCode::kNotFound);
}

TEST(OtnLayer, SharedMeshUsesLessCapacityThanDedicated) {
  // The economic argument for shared-mesh: two protected circuits with
  // disjoint primaries reserve ONE backup pool, not two.
  LayerFixture f;
  // Circuit A: I -> IV (primary direct I-IV).
  const auto a = f.layer
                     .create_circuit({CustomerId{1}, f.t.i, f.t.iv,
                                      rates::k1G, true})
                     .value();
  // Circuit B: I -> II (primary direct I-II).
  const auto b = f.layer
                     .create_circuit({CustomerId{1}, f.t.i, f.t.ii,
                                      rates::k1G, true})
                     .value();
  (void)a;
  (void)b;
  const auto stats = f.layer.slot_stats();
  EXPECT_EQ(stats.working, 2);
  // Dedicated 1+1 would reserve one slot per backup hop per circuit
  // (>= 2 + 2); shared mesh reserves strictly less when risks are disjoint.
  int dedicated_equivalent = 0;
  for (const OduCircuitId id : {a, b})
    dedicated_equivalent +=
        static_cast<int>(f.layer.circuit(id).backup.size());
  EXPECT_LT(stats.shared_reserved, dedicated_equivalent);
}

TEST(MeshRestorer, SubSecondAutonomousRestoration) {
  sim::Engine engine(5);
  LayerFixture f;
  MeshRestorer restorer(&engine, &f.layer);
  const auto id = f.layer
                      .create_circuit({CustomerId{1}, f.t.i, f.t.iv,
                                       rates::k1G, true})
                      .value();
  std::optional<Status> outcome;
  restorer.on_restore([&](OduCircuitId cid, Status s) {
    EXPECT_EQ(cid, id);
    outcome = s;
  });
  restorer.link_failed(f.t.i_iv);
  engine.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok());
  EXPECT_EQ(f.layer.circuit(id).state, OduCircuit::State::kOnBackup);
  const SimTime took = restorer.restoration_times().at(id);
  EXPECT_LT(took, seconds(1));  // "sub-second shared-mesh restoration"
  EXPECT_GT(took, SimTime{});
  EXPECT_EQ(restorer.restorations_ok(), 1u);
}

TEST(MeshRestorer, UnprotectedCircuitIgnored) {
  sim::Engine engine(5);
  LayerFixture f;
  MeshRestorer restorer(&engine, &f.layer);
  (void)f.layer.create_circuit(
      {CustomerId{1}, f.t.i, f.t.iv, rates::k1G, false});
  bool called = false;
  restorer.on_restore([&](OduCircuitId, Status) { called = true; });
  restorer.link_failed(f.t.i_iv);
  engine.run();
  EXPECT_FALSE(called);
  EXPECT_EQ(restorer.restorations_ok(), 0u);
}

TEST(MeshRestorer, ReportsRevertEligibility) {
  sim::Engine engine(5);
  LayerFixture f;
  MeshRestorer restorer(&engine, &f.layer);
  const auto id = f.layer
                      .create_circuit({CustomerId{1}, f.t.i, f.t.iv,
                                       rates::k1G, true})
                      .value();
  restorer.link_failed(f.t.i_iv);
  engine.run();
  std::optional<OduCircuitId> eligible;
  restorer.on_revert_eligible([&](OduCircuitId cid) { eligible = cid; });
  restorer.link_repaired(f.t.i_iv);
  ASSERT_TRUE(eligible.has_value());
  EXPECT_EQ(*eligible, id);
}

// Property: across many protected circuits, the shared pool never admits a
// backup it cannot honor under any single-link failure.
class SharedMeshProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SharedMeshProperty, SingleFailureAlwaysRestorable) {
  Rng rng(GetParam());
  LayerFixture f;
  std::vector<OduCircuitId> protected_ids;
  // Saturate with random protected 1G circuits until admission fails.
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {f.t.i, f.t.iv}, {f.t.i, f.t.iii}, {f.t.ii, f.t.iv}, {f.t.i, f.t.ii}};
  for (int i = 0; i < 30; ++i) {
    const auto& p = pairs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(pairs.size()) - 1))];
    auto r = f.layer.create_circuit(
        {CustomerId{1}, p.first, p.second, rates::k1G, true});
    if (r.ok()) protected_ids.push_back(r.value());
  }
  ASSERT_FALSE(protected_ids.empty());
  // For each single-link failure scenario, every affected protected circuit
  // must activate successfully (then everything is rolled back).
  for (const auto& link : f.t.graph.links()) {
    const auto affected = f.layer.on_link_failed(link.id);
    for (const OduCircuitId id : affected) {
      if (!f.layer.circuit(id).is_protected) continue;
      EXPECT_TRUE(f.layer.activate_backup(id).ok())
          << "link " << link.name << " circuit " << id;
    }
    (void)f.layer.on_link_repaired(link.id);
    for (const OduCircuitId id : affected) {
      if (!f.layer.circuit(id).is_protected) continue;
      ASSERT_TRUE(f.layer.revert_to_primary(id).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedMeshProperty,
                         ::testing::Values(1, 7, 19, 42));

}  // namespace
}  // namespace griphon::otn
