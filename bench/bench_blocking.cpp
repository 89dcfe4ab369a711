// Experiment E7 — §4 "Network resource planning":
//
//   "the carrier must plan ahead, where and when to deploy the spare
//    resources (especially OTs). ... they need to forecast demand and
//    carefully manage the pool of GRIPhoN resources. ... the number of
//    users is smaller and the cost of a line is far greater, making
//    accurate planning far more critical."
//
// Erlang-style engineering study: Poisson wavelength demand on the paper's
// testbed, blocking probability as a function of offered load and of the
// per-site OT pool size. Each PoP hosts three customer access pipes so the
// carrier-side OT pool — not the access — is the engineered resource.
#include <iostream>

#include "bench_util.hpp"
#include "core/planner.hpp"
#include "core/scenario.hpp"
#include "emit_json.hpp"
#include "workload/arrivals.hpp"

using namespace griphon;

namespace {

double blocking(std::uint64_t seed, double arrivals_per_hour,
                std::size_t ots_per_node) {
  sim::Engine engine(seed);
  auto topo = topology::paper_testbed();
  core::NetworkModel::Config cfg;
  cfg.ots_per_node = ots_per_node;
  cfg.with_otn = false;
  cfg.fxc_ports_per_node = 128;
  core::NetworkModel model(&engine, topo.graph, cfg);
  // Six access pipes per PoP (24 x 10G of access) so the OT pool and
  // spectrum — not the 4-port NTEs — are what admission control exhausts.
  const CustomerId csp{1};
  std::vector<MuxponderId> at_i, at_iii, at_iv;
  for (int k = 0; k < 6; ++k) {
    at_i.push_back(model.add_customer_site(csp, "I-" + std::to_string(k),
                                           topo.i).nte);
    at_iii.push_back(model.add_customer_site(csp, "III-" + std::to_string(k),
                                             topo.iii).nte);
    at_iv.push_back(model.add_customer_site(csp, "IV-" + std::to_string(k),
                                            topo.iv).nte);
  }
  core::GriphonController controller(&model, core::GriphonController::Params{});
  core::CustomerPortal portal(&controller, csp, DataRate::gbps(1000000));

  workload::PoissonConnectionLoad::Params p;
  p.arrivals_per_hour = arrivals_per_hour;
  p.mean_holding = hours(2);
  p.rate = rates::k10G;
  for (int k = 0; k < 6; ++k) {
    p.pairs.emplace_back(at_i[static_cast<std::size_t>(k)],
                         at_iv[static_cast<std::size_t>(k)]);
    p.pairs.emplace_back(at_i[static_cast<std::size_t>(k)],
                         at_iii[static_cast<std::size_t>(k)]);
    p.pairs.emplace_back(at_iii[static_cast<std::size_t>(k)],
                         at_iv[static_cast<std::size_t>(k)]);
  }
  workload::PoissonConnectionLoad load(&engine, &portal, p);
  load.run_until(hours(24 * 7));
  engine.run();
  return load.stats().blocking_probability();
}

}  // namespace

int main() {
  bench::banner(
      "Blocking probability vs offered load and OT pool size (1 week of "
      "Poisson 10G demand, mean holding 2 h, 3 access pipes per PoP)");

  const double loads[] = {0.5, 1, 2, 3, 5};      // arrivals/hour
  const std::size_t pools[] = {2, 4, 6, 8, 10};  // OTs per site

  bench::Table table({"offered load", "OTs=2", "OTs=4", "OTs=6", "OTs=8",
                      "OTs=10"},
                     16);
  bench::JsonEmitter json("blocking");
  for (const double load : loads) {
    std::vector<std::string> row{bench::fmt(load * 2, 1) + " Erl"};
    for (const std::size_t pool : pools) {
      const double b = blocking(
          7000 + static_cast<std::uint64_t>(load * 10 + pool), load, pool);
      row.push_back(bench::fmt(b * 100, 1) + "%");
      json.row("blocking_erl" + bench::fmt(load * 2, 1) + "_ots" +
                   std::to_string(pool),
               b * 100, "%");
    }
    table.row(row);
  }
  table.print();

  std::cout << "\nshape check: blocking rises with offered load and falls "
               "as the OT pool grows — the classic Erlang trade-off the "
               "carrier must engineer, but with pools of a handful of "
               "costly OTs rather than thousands of POTS trunks\n";

  // Close the loop with the §4 planner: size pools analytically for a 1%
  // target, then validate against the simulator.
  bench::banner("Planner validation: Erlang-B sizing vs simulated blocking");
  const auto topo = topology::paper_testbed();
  bench::Table t2({"offered load", "planned OTs/site",
                   "predicted blocking", "simulated blocking"}, 22);
  for (const double load : {1.0, 2.0, 3.0}) {
    const double erl = load * 2;  // 2 h holding
    // Three symmetric relations; node I terminates two of them.
    const std::vector<core::DemandForecast> demand = {
        {topo.i, topo.iv, erl / 3}, {topo.i, topo.iii, erl / 3},
        {topo.iii, topo.iv, erl / 3}};
    const auto plan =
        core::ResourcePlanner::plan_ot_pools(topo.graph, demand, 0.01);
    int pool = 0;
    double worst_node = 0;
    for (const auto& r : plan) {
      pool = std::max(pool, r.ots_needed);
      worst_node = std::max(worst_node, r.predicted_blocking);
    }
    // A call needs a free OT at BOTH endpoints.
    const double predicted = 1.0 - (1.0 - worst_node) * (1.0 - worst_node);
    const double simulated =
        blocking(7700 + static_cast<std::uint64_t>(load * 10), load,
                 static_cast<std::size_t>(pool));
    t2.row({bench::fmt(erl, 1) + " Erl", std::to_string(pool),
            bench::fmt(predicted * 100, 2) + "%",
            bench::fmt(simulated * 100, 2) + "%"});
    json.row("planner_erl" + bench::fmt(erl, 1) + "_pool",
             static_cast<double>(pool), "OTs");
    json.row("planner_erl" + bench::fmt(erl, 1) + "_predicted",
             predicted * 100, "%");
    json.row("planner_erl" + bench::fmt(erl, 1) + "_simulated",
             simulated * 100, "%");
  }
  t2.print();
  json.write("BENCH_blocking.json");
  std::cout << "\nshape check: the analytically sized pool keeps simulated "
               "blocking near the 1% engineering target\n"
               "wrote BENCH_blocking.json\n";
  return 0;
}
