// Restoration storm headline — ISSUE 10 / DESIGN.md §17:
//
// A backhoe cutting a conduit takes down every SRLG sibling fiber at once,
// failing a whole corridor of connections in one correlated event. The 2011
// controller restored them one at a time; the storm pipeline drains the
// tier-ordered queue with configurable parallelism. This bench stages the
// same conduit cut twice on a 50-node synthetic backbone (12 DC sites):
//
//   serial      max_concurrent=1 (the 2011 one-at-a-time pump)
//   concurrent  max_concurrent=8, per-domain admission window 8
//
// A discovery pass (no SRLGs, same seed — SRLGs do not affect initial
// routing) finds the three links carrying the most restorable connections;
// those become the shared conduit, and both measured arms cut it in one
// instant so the FailureManager collapses the sibling alarms into a single
// storm event.
//
// Gates (process exit code, consumed by CI):
//   1. the concurrent arm restores strictly more affected connections
//      within the 60 s window than the serial arm,
//   2. both arms collapse the simultaneous sibling cuts into exactly one
//      correlated storm event,
//   3. zero gold connections stranded once capacity exists: none after the
//      pre-repair drain in the concurrent arm (the mesh has spare
//      channels), and none in either arm after the conduit is spliced —
//      with the retry backlog empty and the storm flag clear,
//   4. a full resync after the run finds no leaked device state.
#include <algorithm>
#include <iostream>
#include <map>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/network_model.hpp"
#include "core/portal.hpp"
#include "emit_json.hpp"
#include "topology/builders.hpp"

using namespace griphon;

namespace {

constexpr std::size_t kConduitSize = 3;
constexpr std::size_t kConnections = 24;

/// A random subset of nodes acting as the data-center sites.
std::vector<NodeId> pick_sites(const topology::Graph& g, std::size_t count,
                               Rng& rng) {
  std::vector<NodeId> sites;
  for (const auto& node : g.nodes()) sites.push_back(node.id);
  for (std::size_t i = 0; i < count && i + 1 < sites.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(sites.size()) - 1));
    std::swap(sites[i], sites[j]);
  }
  sites.resize(std::min(count, sites.size()));
  return sites;
}

/// Deterministic demand set: site pairs drawn by seeded shuffle, tiers
/// assigned round-robin so the cut hits every class of service.
struct Demand {
  std::size_t src;
  std::size_t dst;
  core::ServiceTier tier;
};

std::vector<Demand> build_demands(std::size_t sites, std::size_t count,
                                  Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t a = 0; a < sites; ++a)
    for (std::size_t b = a + 1; b < sites; ++b) pairs.emplace_back(a, b);
  for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(pairs.size()) - 1));
    std::swap(pairs[i], pairs[j]);
  }
  pairs.resize(std::min(count, pairs.size()));
  static constexpr core::ServiceTier kTiers[] = {core::ServiceTier::kGold,
                                                 core::ServiceTier::kSilver,
                                                 core::ServiceTier::kBronze};
  std::vector<Demand> demands;
  for (std::size_t i = 0; i < pairs.size(); ++i)
    demands.push_back(
        {pairs[i].first, pairs[i].second, kTiers[i % 3]});
  return demands;
}

struct Testbed {
  sim::Engine engine;
  core::NetworkModel model;
  core::GriphonController controller;
  core::CustomerPortal portal;
  std::vector<MuxponderId> ntes;

  Testbed(const topology::Graph& graph, const std::vector<NodeId>& dc_sites,
          std::uint64_t seed, const core::GriphonController::Params& params)
      : engine(seed),
        model(&engine, graph,
              [] {
                core::NetworkModel::Config cfg;
                cfg.channels = 8;
                cfg.ots_per_node = 24;
                cfg.regens_per_node = 8;
                cfg.fxc_ports_per_node = 128;
                cfg.with_otn = false;
                return cfg;
              }()),
        controller(&model, params),
        portal(&controller, CustomerId{1}, DataRate::gbps(1000000)) {
    for (std::size_t k = 0; k < dc_sites.size(); ++k)
      ntes.push_back(
          model.add_customer_site(CustomerId{1}, "DC-" + std::to_string(k),
                                  dc_sites[k])
              .nte);
  }

  /// Establish the demand set; returns the ids that came up.
  std::vector<ConnectionId> establish(const std::vector<Demand>& demands) {
    std::vector<ConnectionId> ids;
    for (const Demand& d : demands) {
      std::optional<ConnectionId> id;
      portal.connect(
          ntes[d.src], ntes[d.dst], rates::k10G,
          core::ProtectionMode::kRestorable,
          [&](Result<ConnectionId> r) {
            if (r.ok()) id = r.value();
          },
          d.tier);
      engine.run();
      if (id) ids.push_back(*id);
    }
    return ids;
  }
};

/// Discovery pass: establish the demand set on the bare mesh and return the
/// links carrying the most restorable connections — the conduit to cut.
std::vector<LinkId> find_conduit(const topology::Graph& graph,
                                 const std::vector<NodeId>& dc_sites,
                                 std::uint64_t seed,
                                 const std::vector<Demand>& demands) {
  Testbed bed(graph, dc_sites, seed, core::GriphonController::Params{});
  const auto ids = bed.establish(demands);
  std::map<LinkId, std::size_t> usage;
  for (const ConnectionId id : ids)
    for (const LinkId l : bed.controller.connection(id).plan.path.links)
      ++usage[l];
  std::vector<std::pair<LinkId, std::size_t>> ranked(usage.begin(),
                                                     usage.end());
  // Busiest first; ties broken by link id so the pick is deterministic.
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first.value() < y.first.value();
  });
  std::vector<LinkId> conduit;
  for (std::size_t i = 0; i < ranked.size() && conduit.size() < kConduitSize;
       ++i)
    conduit.push_back(ranked[i].first);
  return conduit;
}

struct ArmResult {
  std::size_t established = 0;
  std::size_t affected = 0;
  std::size_t restored_60 = 0;
  std::size_t gold_affected = 0;
  std::size_t gold_stranded_after_drain = 0;
  std::size_t gold_stranded_final = 0;
  std::size_t stranded_final = 0;
  std::size_t backlog_final = 0;
  std::size_t storms = 0;
  bool storm_clear = false;
  core::GriphonController::Stats controller;
  std::size_t resync_leaks = 0;
  std::size_t resync_drift = 0;
  bool resync_done = false;

  [[nodiscard]] double restored_60_pct() const {
    return affected == 0
               ? 0.0
               : 100.0 * static_cast<double>(restored_60) /
                     static_cast<double>(affected);
  }
};

ArmResult run_arm(const topology::Graph& graph,
                  const std::vector<NodeId>& dc_sites, std::uint64_t seed,
                  const std::vector<Demand>& demands,
                  const std::vector<LinkId>& conduit,
                  std::size_t max_concurrent) {
  core::GriphonController::Params params;
  params.restoration.max_concurrent = max_concurrent;
  params.restoration.per_domain_inflight = std::max<std::size_t>(
      max_concurrent, params.restoration.per_domain_inflight);
  Testbed bed(graph, dc_sites, seed, params);
  const auto ids = bed.establish(demands);

  ArmResult out;
  out.established = ids.size();
  const auto uses_conduit = [&](ConnectionId id) {
    const auto& path = bed.controller.connection(id).plan.path;
    return std::any_of(conduit.begin(), conduit.end(),
                       [&](LinkId l) { return path.uses_link(l); });
  };
  std::vector<ConnectionId> affected;
  for (const ConnectionId id : ids)
    if (uses_conduit(id)) {
      affected.push_back(id);
      if (bed.controller.connection(id).tier == core::ServiceTier::kGold)
        ++out.gold_affected;
    }
  out.affected = affected.size();

  // The backhoe: every fiber in the conduit at the same instant.
  for (const LinkId l : conduit) bed.model.fail_link(l);
  bed.engine.run_until(bed.engine.now() + seconds(60));
  for (const ConnectionId id : affected)
    if (bed.controller.connection(id).is_up()) ++out.restored_60;

  // Drain: timed retries run their course, the rest goes dormant.
  bed.engine.run();
  for (const ConnectionId id : affected) {
    const auto& c = bed.controller.connection(id);
    if (!c.is_up() && c.tier == core::ServiceTier::kGold)
      ++out.gold_stranded_after_drain;
  }

  // Splice the conduit; the repair notification re-arms the backlog.
  for (const LinkId l : conduit) bed.model.repair_link(l);
  bed.engine.run();
  for (const ConnectionId id : affected) {
    const auto& c = bed.controller.connection(id);
    if (c.is_up()) continue;
    ++out.stranded_final;
    if (c.tier == core::ServiceTier::kGold) ++out.gold_stranded_final;
  }
  out.backlog_final = bed.controller.restoration_backlog_depth();
  out.storms = bed.controller.failure_manager().storms_seen();
  out.storm_clear = !bed.controller.restoration_storm_active();
  out.controller = bed.controller.stats();

  // Teardown-free run, but restorations leave retuned OTs behind; sweep
  // until the plant audits clean (bounded), as the reopt bench does.
  for (int pass = 0; pass < 4; ++pass) {
    out.resync_done = false;
    bed.controller.resync(
        [&out](Result<core::GriphonController::ResyncReport> r) {
          if (!r.ok()) return;
          out.resync_leaks = r.value().total_leaks();
          out.resync_drift = r.value().drifted_connections;
          out.resync_done = true;
        });
    bed.engine.run();
    if (out.resync_done && out.resync_leaks == 0 && out.resync_drift == 0)
      break;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner(
      "Restoration storm on a 50-node backbone: one 3-fiber SRLG conduit "
      "cut under 24 tiered connections (12 DC sites), serial pump vs "
      "concurrent tiered pipeline");

  Rng mesh_rng(4242);
  const auto backbone = topology::random_mesh(50, 3.2, mesh_rng);
  Rng site_rng(977);
  const auto dc_sites = pick_sites(backbone, 12, site_rng);
  Rng demand_rng(31337);
  const auto demands =
      build_demands(dc_sites.size(), kConnections, demand_rng);

  const std::uint64_t seed = 20110804;
  const auto conduit = find_conduit(backbone, dc_sites, seed, demands);
  topology::Graph rigged = backbone;
  for (const LinkId l : conduit) rigged.set_srlg(l, 1);
  std::cout << "conduit (" << conduit.size() << " fibers):";
  for (const LinkId l : conduit)
    std::cout << " " << backbone.link(l).name << "(#" << l.value() << ")";
  std::cout << "\n";

  const ArmResult serial = run_arm(rigged, dc_sites, seed, demands, conduit,
                                   /*max_concurrent=*/1);
  const ArmResult conc = run_arm(rigged, dc_sites, seed, demands, conduit,
                                 /*max_concurrent=*/8);

  bench::Table table({"arm", "affected", "restored<60s", "gold stranded",
                      "retries", "non-diverse", "storms"},
                     14);
  const auto row = [&](const char* name, const ArmResult& r) {
    table.row({name, std::to_string(r.affected),
               std::to_string(r.restored_60) + " (" +
                   bench::fmt(r.restored_60_pct(), 0) + "%)",
               std::to_string(r.gold_stranded_final),
               std::to_string(r.controller.restorations_retried),
               std::to_string(r.controller.restorations_non_diverse),
               std::to_string(r.storms)});
  };
  row("serial", serial);
  row("concurrent", conc);
  table.print();
  std::cout << "\nconcurrent arm: " << conc.established << " established, "
            << conc.affected << " cut (" << conc.gold_affected << " gold), "
            << conc.controller.restorations_ok << " restorations ok, "
            << conc.gold_stranded_after_drain
            << " gold stranded pre-repair, backlog " << conc.backlog_final
            << " after splice\n";

  bench::JsonEmitter json("storm");
  json.row("affected_connections", static_cast<double>(conc.affected),
           "connections");
  json.row("serial_restored_60_pct", serial.restored_60_pct(), "%");
  json.row("concurrent_restored_60_pct", conc.restored_60_pct(), "%");
  json.row("serial_gold_stranded", static_cast<double>(
               serial.gold_stranded_final), "connections");
  json.row("concurrent_gold_stranded", static_cast<double>(
               conc.gold_stranded_final), "connections");
  json.row("concurrent_gold_stranded_pre_repair",
           static_cast<double>(conc.gold_stranded_after_drain),
           "connections");
  json.row("concurrent_restorations_retried",
           static_cast<double>(conc.controller.restorations_retried),
           "retries");
  json.row("concurrent_non_diverse",
           static_cast<double>(conc.controller.restorations_non_diverse),
           "restorations");
  json.row("storm_events", static_cast<double>(conc.storms), "storms");
  json.write("BENCH_storm.json");
  std::cout << "wrote BENCH_storm.json\n\n";

  // --- gates --------------------------------------------------------------
  int failures = 0;
  const auto gate = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS  " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  gate(serial.affected == conc.affected && conc.affected >= 6,
       "identical cut in both arms and it hurts (" +
           std::to_string(conc.affected) + " connections affected)");
  gate(conc.restored_60 > serial.restored_60,
       "concurrent pipeline restores strictly more within 60 s (" +
           std::to_string(conc.restored_60) + " > " +
           std::to_string(serial.restored_60) + " of " +
           std::to_string(conc.affected) + ")");
  gate(serial.storms == 1 && conc.storms == 1,
       "simultaneous sibling cuts collapse into exactly one storm event");
  gate(conc.gold_stranded_after_drain == 0,
       "no gold stranded once the pipeline drains (spare capacity exists)");
  gate(serial.stranded_final == 0 && conc.stranded_final == 0 &&
           serial.backlog_final == 0 && conc.backlog_final == 0 &&
           serial.storm_clear && conc.storm_clear,
       "after the splice every connection is up, backlog empty, storm "
       "flag clear in both arms");
  gate(conc.resync_done && conc.resync_leaks == 0 && conc.resync_drift == 0,
       "post-run resync sweeps clean (" +
           std::to_string(conc.resync_leaks) + " leaks, " +
           std::to_string(conc.resync_drift) + " drifted)");
  if (failures != 0) {
    std::cout << "\n" << failures << " gate(s) FAILED\n";
    return 1;
  }
  std::cout << "\nall gates passed\n";
  return 0;
}
