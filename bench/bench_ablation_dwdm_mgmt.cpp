// Ablation — §4 "DWDM layer management":
//
//   "The connection establishment times we have demonstrated are far
//    slower than any fundamental limitations on the DWDM layer. To reduce
//    the connection establishment time will place additional requirements
//    on both the physical hardware and software control."
//
// Two independent levers are ablated:
//  * controller orchestration: sequential EMS dialogues (the 2011 testbed)
//    vs the dependency-DAG executor overlapping independent commands;
//  * element speed: the calibrated 2011 latency profile vs a speed-
//    optimized "fast hardware" profile (fast-tunable lasers, transient-
//    tolerant amplifiers, pipelined EMS database work).
#include <iostream>

#include "bench_util.hpp"
#include "core/scenario.hpp"

using namespace griphon;

namespace {

bench::Summary measure(core::ExecMode mode, bool fast_hw, int runs) {
  std::vector<double> xs;
  for (int i = 0; i < runs; ++i) {
    core::NetworkModel::Config cfg;
    cfg.with_otn = false;
    if (fast_hw) cfg.ems_profile = ems::EmsLatencyProfile::fast_hardware();
    core::GriphonController::Params params;
    params.exec_mode = mode;
    core::TestbedScenario s(11000 + static_cast<std::uint64_t>(i), cfg,
                            params);
    // 3-hop path: the configuration with the most parallelizable work.
    s.model->fail_link(s.topo.i_iv);
    s.model->fail_link(s.topo.i_iii);
    s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                      core::ProtectionMode::kRestorable,
                      [&](Result<ConnectionId> r) {
                        if (r.ok())
                          xs.push_back(to_seconds(
                              s.controller->connection(r.value())
                                  .setup_duration));
                      });
    s.engine.run();
  }
  return bench::summarize(xs);
}

}  // namespace

int main() {
  bench::banner(
      "Ablation: what it takes to make DWDM-layer setup fast "
      "(3-hop path, 10 runs per cell)");
  constexpr int kRuns = 10;

  bench::Table table({"EMS orchestration", "2011 hardware",
                      "speed-optimized hardware"});
  const auto seq_slow = measure(core::ExecMode::kSequential, false, kRuns);
  const auto seq_fast = measure(core::ExecMode::kSequential, true, kRuns);
  const auto dag_slow = measure(core::ExecMode::kDag, false, kRuns);
  const auto dag_fast = measure(core::ExecMode::kDag, true, kRuns);
  table.row({"sequential (testbed)",
             bench::fmt(seq_slow.mean, 1) + " s",
             bench::fmt(seq_fast.mean, 1) + " s"});
  table.row({"dependency DAG (default)", bench::fmt(dag_slow.mean, 1) + " s",
             bench::fmt(dag_fast.mean, 1) + " s"});
  table.print();

  std::cout << "\nshape check: software alone (dependency DAG) buys ~"
            << bench::fmt(seq_slow.mean / dag_slow.mean, 1)
            << "x; hardware alone ~"
            << bench::fmt(seq_slow.mean / seq_fast.mean, 1)
            << "x; together ~"
            << bench::fmt(seq_slow.mean / dag_fast.mean, 1)
            << "x — supporting the paper's claim that the 60-70 s reflects "
               "'a lack of current carrier requirements for speed', not "
               "physics\n";
  return 0;
}
