// Re-optimization headline — ROADMAP "global re-optimization" item:
//
// Greedy first-fit provisioning fragments the wavelength plane as churn
// punches holes into the spectrum; on a continental backbone the stranded
// capacity shows up directly as blocked demand. This bench runs the same
// Poisson churn twice on a 50-node synthetic backbone (12 DC sites):
//
//   greedy        first-fit RWA only (the PR-6 baseline behaviour)
//   greedy+reopt  the same, plus the ReoptService compacting the plane
//                 with hitless bridge-and-roll campaigns every hour
//
// Gates (process exit code, consumed by CI):
//   1. blocking with reopt is strictly lower than greedy,
//   2. final mean fragmentation with reopt is lower than greedy,
//   3. campaigns never abort and no move fails,
//   4. re-optimization is service-invisible: zero restorations and zero
//      accumulated outage on the controller,
//   5. a full resync after the run finds no leaked device state.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/network_model.hpp"
#include "core/portal.hpp"
#include "emit_json.hpp"
#include "reopt/service.hpp"
#include "topology/builders.hpp"
#include "workload/arrivals.hpp"

using namespace griphon;

namespace {

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

struct ArmResult {
  workload::PoissonConnectionLoad::Stats load;
  core::GriphonController::Stats controller;
  reopt::ReoptService::Stats reopt;
  double frag_mean = 0;
  double frag_max = 0;
  std::size_t resync_leaks = 0;
  std::size_t resync_drift = 0;
  std::size_t resync_passes = 0;
  bool resync_done = false;
};

ArmResult run_arm(const topology::Graph& graph,
                  const std::vector<NodeId>& dc_sites, std::uint64_t seed,
                  bool with_reopt) {
  sim::Engine engine(seed);
  core::NetworkModel::Config cfg;
  cfg.channels = 8;        // tight spectrum: fragmentation must hurt
  cfg.ots_per_node = 24;   // optics are not the bottleneck here
  cfg.regens_per_node = 8;
  cfg.fxc_ports_per_node = 128;
  cfg.with_otn = false;
  core::NetworkModel model(&engine, graph, cfg);

  const CustomerId csp{1};
  std::vector<MuxponderId> ntes;
  for (std::size_t k = 0; k < dc_sites.size(); ++k)
    ntes.push_back(
        model.add_customer_site(csp, "DC-" + std::to_string(k), dc_sites[k])
            .nte);
  core::GriphonController controller(&model,
                                     core::GriphonController::Params{});
  core::CustomerPortal portal(&controller, csp, DataRate::gbps(1000000));

  workload::PoissonConnectionLoad::Params lp;
  lp.arrivals_per_hour = 14.0;
  lp.mean_holding = hours(2);
  lp.rate = rates::k10G;
  for (std::size_t a = 0; a < ntes.size(); ++a)
    for (std::size_t b = a + 1; b < ntes.size(); ++b)
      lp.pairs.emplace_back(ntes[a], ntes[b]);
  workload::PoissonConnectionLoad load(&engine, &portal, lp);

  reopt::ReoptService::Params rp;
  rp.period = hours(1);
  rp.trip_threshold = 0.02;  // mean over ~80 links, most idle: trip early
  rp.min_moves = 1;
  rp.max_moves_per_campaign = 32;
  for (std::size_t a = 0; a < dc_sites.size(); ++a)
    for (std::size_t b = a + 1; b < dc_sites.size(); ++b)
      rp.pairs.emplace_back(dc_sites[a], dc_sites[b]);
  reopt::ReoptService service(&controller, rp);

  const SimTime horizon = hours(72);
  load.run_until(horizon);
  if (with_reopt) service.start();
  engine.run_until(horizon);

  ArmResult out;
  // Score the plane while it is still loaded — after the drain below the
  // held connections expire and an empty network scores 0 in both arms.
  const reopt::FragmentationReport& report = service.analyze();
  out.frag_mean = report.mean_score;
  out.frag_max = report.max_score;
  if (with_reopt) service.stop();
  engine.run();  // drain teardowns / the tail of the last campaign

  out.load = load.stats();
  out.controller = controller.stats();
  out.reopt = service.stats();
  // Teardown leaves OTs tuned for fast reuse; the first resync pass
  // repairs those, so sweep until the plant audits clean (bounded).
  for (int pass = 0; pass < 4; ++pass) {
    out.resync_done = false;
    controller.resync(
        [&out](Result<core::GriphonController::ResyncReport> r) {
          if (!r.ok()) return;
          out.resync_leaks = r.value().total_leaks();
          out.resync_drift = r.value().drifted_connections;
          out.resync_done = true;
          ++out.resync_passes;
        });
    engine.run();
    if (out.resync_done && out.resync_leaks == 0 && out.resync_drift == 0)
      break;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner(
      "Batch defragmentation on a 50-node backbone: 72 h of Poisson churn "
      "(12 DC sites, 8-channel links), greedy first-fit vs greedy + hourly "
      "re-optimization campaigns");

  Rng mesh_rng(4242);
  const auto backbone = topology::random_mesh(50, 3.2, mesh_rng);
  Rng site_rng(977);
  const auto dc_sites = pick_sites(backbone, 12, site_rng);

  const std::uint64_t seed = 20110804;
  const ArmResult greedy = run_arm(backbone, dc_sites, seed, false);
  const ArmResult reopt = run_arm(backbone, dc_sites, seed, true);

  bench::Table table({"arm", "offered", "blocked", "blocking", "frag mean",
                      "frag max", "rolls ok"},
                     14);
  const auto row = [&](const char* name, const ArmResult& r) {
    table.row({name, std::to_string(r.load.offered),
               std::to_string(r.load.blocked),
               bench::fmt(r.load.blocking_probability() * 100, 2) + "%",
               bench::fmt(r.frag_mean, 4), bench::fmt(r.frag_max, 3),
               std::to_string(r.controller.rolls_ok)});
  };
  row("greedy", greedy);
  row("greedy+reopt", reopt);
  table.print();

  std::cout << "\nreopt campaigns: " << reopt.reopt.campaigns_completed
            << " completed, " << reopt.reopt.campaigns_aborted << " aborted; "
            << reopt.reopt.moves_rolled << " moves rolled, "
            << reopt.reopt.moves_skipped << " skipped, "
            << reopt.reopt.moves_failed << " failed, "
            << reopt.reopt.cycle_breaks << " cycle breaks\n";

  bench::JsonEmitter json("reopt");
  json.row("greedy_blocking", greedy.load.blocking_probability() * 100, "%");
  json.row("reopt_blocking", reopt.load.blocking_probability() * 100, "%");
  json.row("greedy_frag_mean", greedy.frag_mean, "score");
  json.row("reopt_frag_mean", reopt.frag_mean, "score");
  json.row("reopt_moves_rolled",
           static_cast<double>(reopt.reopt.moves_rolled), "moves");
  json.row("reopt_campaigns_completed",
           static_cast<double>(reopt.reopt.campaigns_completed), "campaigns");
  json.row("reopt_cycle_breaks",
           static_cast<double>(reopt.reopt.cycle_breaks), "breaks");
  json.row("reopt_rolls_ok", static_cast<double>(reopt.controller.rolls_ok),
           "rolls");
  json.write("BENCH_reopt.json");
  std::cout << "wrote BENCH_reopt.json\n\n";

  // --- gates --------------------------------------------------------------
  int failures = 0;
  const auto gate = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS  " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  // The arms draw different RNG tails (campaign think times share the
  // engine RNG), so offered counts differ slightly: compare probabilities.
  gate(reopt.load.blocking_probability() <
           greedy.load.blocking_probability(),
       "blocking probability strictly lower with re-optimization (" +
           bench::fmt(reopt.load.blocking_probability() * 100, 2) + "% < " +
           bench::fmt(greedy.load.blocking_probability() * 100, 2) + "%)");
  gate(reopt.frag_mean < greedy.frag_mean,
       "final fragmentation lower with re-optimization (" +
           bench::fmt(reopt.frag_mean, 4) + " < " +
           bench::fmt(greedy.frag_mean, 4) + ")");
  gate(reopt.reopt.campaigns_aborted == 0 && reopt.reopt.moves_failed == 0 &&
           reopt.controller.rolls_failed == 0,
       "no campaign aborted, no move failed, no roll failed");
  gate(reopt.controller.restorations_ok == 0 &&
           reopt.controller.restorations_failed == 0,
       "re-optimization triggered zero restorations (service-invisible)");
  // Every controller roll in this scenario is a reopt move (plus one
  // extra roll per cycle break's scratch hop): nothing unaccounted.
  gate(reopt.controller.rolls_ok ==
           reopt.reopt.moves_rolled + reopt.reopt.cycle_breaks,
       "every completed roll accounted to a campaign move (" +
           std::to_string(reopt.controller.rolls_ok) + " rolls = " +
           std::to_string(reopt.reopt.moves_rolled) + " moves + " +
           std::to_string(reopt.reopt.cycle_breaks) + " scratch hops)");
  gate(reopt.resync_done && reopt.resync_leaks == 0 &&
           reopt.resync_drift == 0,
       "post-run resync sweeps clean (" +
           std::to_string(reopt.resync_leaks) + " leaks, " +
           std::to_string(reopt.resync_drift) + " drifted after " +
           std::to_string(reopt.resync_passes) + " pass(es))");
  if (failures != 0) {
    std::cout << "\n" << failures << " gate(s) FAILED\n";
    return 1;
  }
  std::cout << "\nall gates passed\n";
  return 0;
}
