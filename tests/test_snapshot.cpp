// Inventory::Snapshot: the immutable read view of planning state
// (DESIGN.md §15). Single-threaded semantics: a new snapshot is assembled
// only when something actually moved, every trigger (reservation, fiber
// cut, device transition) shows up in the next one, and a snapshot once
// handed out never changes, whatever happens to the model and overlay
// afterwards. Agreement with brute-force scans is test_inventory_equiv's
// job.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/inventory.hpp"
#include "core/network_model.hpp"
#include "sim/engine.hpp"
#include "topology/builders.hpp"

namespace griphon::core {
namespace {

NetworkModel::Config small_config() {
  NetworkModel::Config c;
  c.channels = 16;
  c.ots_per_node = 3;
  c.ots_40g_per_node = 1;
  c.regens_per_node = 2;
  c.with_otn = false;
  return c;
}

struct SnapshotFixture {
  SnapshotFixture()
      : engine(7),
        model(&engine, topology::paper_testbed().graph, small_config()),
        inventory(&model) {}

  sim::Engine engine;
  NetworkModel model;
  Inventory inventory;
};

TEST(InventorySnapshot, RepublishesOnlyOnChange) {
  SnapshotFixture f;
  const auto s1 = f.inventory.snapshot();
  const auto s2 = f.inventory.snapshot();
  EXPECT_EQ(s1, s2) << "no change -> same immutable object";

  f.inventory.reserve_channel(LinkId{0}, 0);
  const auto s3 = f.inventory.snapshot();
  EXPECT_NE(s3, s2);
  EXPECT_FALSE(s3->available_on_link(LinkId{0}).contains(0));

  // Releasing a never-reserved channel is a no-op: no new snapshot.
  f.inventory.release_channel(LinkId{0}, 9);
  const auto s4 = f.inventory.snapshot();
  EXPECT_EQ(s4, s3);
}

TEST(InventorySnapshot, VersionStampsTrackTheirTriggers) {
  SnapshotFixture f;
  const auto s0 = f.inventory.snapshot();

  // Topology: a fiber cut moves topology_version, and the failed link
  // shows as empty in the next snapshot.
  f.model.fail_link(LinkId{2});
  const auto s1 = f.inventory.snapshot();
  EXPECT_NE(s1, s0);
  EXPECT_TRUE(s1->available_on_link(LinkId{2}).empty());
  f.model.repair_link(LinkId{2});
  const auto s2 = f.inventory.snapshot();
  EXPECT_NE(s2, s1);
  EXPECT_FALSE(s2->available_on_link(LinkId{2}).empty());

  // Device: an OT lifecycle transition moves device_version and the OT
  // leaves the next snapshot's free pool; resetting it brings it back.
  const auto ot = s2->find_free_ot(NodeId{0}, rates::k10G);
  ASSERT_TRUE(ot.has_value());
  ASSERT_TRUE(f.model.ot(*ot).tune(0).ok());
  ASSERT_TRUE(f.model.ot(*ot).activate().ok());
  const auto s3 = f.inventory.snapshot();
  EXPECT_NE(s3, s2);
  EXPECT_NE(s3->find_free_ot(NodeId{0}, rates::k10G), ot);
  ASSERT_TRUE(f.model.ot(*ot).deactivate().ok());
  ASSERT_TRUE(f.model.ot(*ot).reset().ok());
  const auto s4 = f.inventory.snapshot();
  EXPECT_NE(s4, s3);
  EXPECT_EQ(s4->find_free_ot(NodeId{0}, rates::k10G), ot);
}

TEST(InventorySnapshot, PublishedSnapshotNeverReadsTheModel) {
  SnapshotFixture f;
  const auto s1 = f.inventory.snapshot();
  const auto& links = f.model.graph().links();
  const auto& nodes = f.model.graph().nodes();
  std::vector<dwdm::ChannelSet> avail;
  for (const auto& link : links)
    avail.push_back(s1->available_on_link(link.id));
  std::vector<std::size_t> free_ots;
  for (const auto& node : nodes)
    free_ots.push_back(s1->free_ot_count(node.id, rates::k10G));
  const auto ot = s1->find_free_ot(NodeId{0}, rates::k10G);
  ASSERT_TRUE(ot.has_value());

  // Churn every input a snapshot is built from — overlay, topology and
  // device state — and take newer snapshots in between.
  f.inventory.reserve_channel(LinkId{1}, 4);
  f.inventory.reserve_ot(*ot);
  (void)f.inventory.snapshot();
  f.model.fail_link(LinkId{0});
  const auto other =
      f.inventory.snapshot()->find_free_ot(NodeId{0}, rates::k10G);
  ASSERT_TRUE(other.has_value());
  ASSERT_TRUE(f.model.ot(*other).tune(1).ok());
  ASSERT_TRUE(f.model.ot(*other).activate().ok());
  const auto s2 = f.inventory.snapshot();
  EXPECT_TRUE(s2->available_on_link(LinkId{0}).empty());

  // The snapshot handed out first still shows the state it was built from.
  for (std::size_t i = 0; i < links.size(); ++i)
    EXPECT_EQ(s1->available_on_link(links[i].id), avail[i])
        << "link " << links[i].id.value();
  for (std::size_t i = 0; i < nodes.size(); ++i)
    EXPECT_EQ(s1->free_ot_count(nodes[i].id, rates::k10G), free_ots[i])
        << "node " << nodes[i].id.value();
  EXPECT_EQ(s1->find_free_ot(NodeId{0}, rates::k10G), ot);
}

}  // namespace
}  // namespace griphon::core
