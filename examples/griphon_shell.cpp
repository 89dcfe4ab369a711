// Interactive GRIPhoN operations shell.
//
// A scriptable console for driving a deployment by hand — the closest
// thing to sitting at the paper's customer GUI plus the carrier's NOC at
// once. Reads commands from stdin (pipe a script or type interactively):
//
//   sites                      list customer sites
//   topo                       list fiber links
//   connect <a> <b> <gbps> [none|restore|1+1]
//   bundle <a> <b> <gbps>      composite-rate bundle
//   disconnect <id>
//   cut <link-name>            fiber cut
//   repair <link-name>
//   maintain <link-name>       bridge-and-roll everything off, then work
//   regroom <id>
//   wait <seconds>             advance simulated time
//   dashboard                  customer view + ops view (sparklines, SLOs)
//   stats                      controller counters
//   telemetry                  Prometheus metrics dump
//   telemetry <id>             per-connection lifecycle waterfall
//   telemetry json [id]        span JSON (all spans, or one connection)
//   telemetry save <path>      dump metrics + spans + events as JSON
//   trace save <path>          Chrome Trace Event JSON (Perfetto/
//                              chrome://tracing loadable)
//   series [save <path> [csv]] sampled gauge time series (sparklines to
//                              the console, JSON/CSV to a file)
//   eventlog [n]               newest n structured events (default 20)
//   eventlog save <path>       event log as JSON
//   dag                        step DAG + critical path of the last
//                              command train run by the DAG executor
//   schedule <a> <b> <tb> <hours>   deadline-driven bulk transfer (BoD)
//   transfers                  bulk-transfer status table
//   reserve <link> <gbps> <start-s> <end-s>   advance calendar reservation
//   calendar                   reservation-calendar occupancy map
//   reopt [analyze]            fragmentation + continuity scorecard
//   reopt plan                 migration delta the compaction solver wants
//   reopt run                  hitless defrag campaign (BoD windows exempt)
//   reopt stats                re-optimization service counters
//   chaos plan <preset> [x]    load a fault plan (optionally scaled by x)
//   chaos arm | disarm | heal  start / stop / repair fault injection
//   chaos stats                injector counters + controller fault stats
//   chaos log                  timestamped fault schedule
//   quit
//
// Example (one line):
//   printf 'connect 0 2 10\ntelemetry 1\nquit\n' | ./build/examples/griphon_shell
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "bod/observability.hpp"
#include "bod/transfer_scheduler.hpp"
#include "chaos/fault_injector.hpp"
#include "chaos/fault_plan.hpp"
#include "core/observability.hpp"
#include "core/scenario.hpp"
#include "reopt/service.hpp"
#include "core/step_dag.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeline.hpp"
#include "telemetry/trace_export.hpp"

using namespace griphon;

namespace {

std::optional<LinkId> link_by_name(const core::NetworkModel& model,
                                   const std::string& name) {
  for (const auto& l : model.graph().links())
    if (l.name == name) return l.id;
  return std::nullopt;
}

}  // namespace

int main() {
  core::TestbedScenario s(/*seed=*/1);
  telemetry::Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);

  // BoD service layer riding the same deployment: an advance-reservation
  // calendar over the testbed fibers, admission control for the one
  // customer, and the deadline scheduler in front of the portal.
  bod::ReservationCalendar calendar;
  bod::AdmissionController admission(&s.engine);
  bod::AdmissionController::CustomerPolicy policy;
  policy.bandwidth_quota = DataRate::gbps(160);
  admission.set_policy(s.csp, policy);
  bod::TransferScheduler scheduler(s.controller.get(), &calendar,
                                   &admission);
  scheduler.register_portal(s.portal.get());

  // Re-optimization rides the same controller: hourly fragmentation
  // analysis and on-demand defrag campaigns. Connections inside
  // calendar-committed BoD transfer windows are never migrated.
  reopt::ReoptService::Params reopt_params;
  for (const auto& a : s.model->graph().nodes())
    for (const auto& b : s.model->graph().nodes())
      if (a.id.value() < b.id.value())
        reopt_params.pairs.emplace_back(a.id, b.id);
  reopt::ReoptService reoptsvc(s.controller.get(), reopt_params);
  reoptsvc.set_exempt_provider(
      [&scheduler] { return scheduler.migration_exempt_connections(); });

  // Observability v2: a gauge sampler over the standard probe set (pool
  // occupancy, EMS queues/breakers, calendar, connections) feeding SLO
  // evaluation against the paper's operational budgets.
  telemetry::GaugeSampler sampler(&s.engine, &tel);
  core::install_standard_probes(sampler, *s.controller, *s.model);
  {
    std::vector<LinkId> links;
    for (const auto& l : s.model->graph().links()) links.push_back(l.id);
    bod::install_calendar_probes(sampler, calendar, s.engine,
                                 std::move(links));
  }
  reoptsvc.install_probes(sampler);
  sampler.start(from_seconds(5));
  telemetry::SloMonitor slo(&s.engine, &tel);
  slo.add_objective(
      telemetry::setup_latency_objective(tel.metrics(), /*budget=*/90.0));
  slo.add_objective(
      telemetry::restoration_time_objective(tel.metrics(), /*budget=*/120.0));
  slo.add_objective(
      telemetry::blocking_rate_objective(tel.metrics(), /*ceiling=*/0.05));
  slo.add_objective(
      telemetry::bod_deadline_miss_objective(tel.metrics(), /*ceiling=*/0.1));
  slo.add_objective(reopt::fragmentation_objective(reoptsvc, /*bound=*/0.35));
  slo.add_objective(
      telemetry::restoration_backlog_objective(tel.metrics(), /*ceiling=*/4.0));
  slo.start(from_seconds(10));

  // Fault injection on demand: `chaos plan <preset>` builds an injector
  // for the loaded deployment, `chaos arm` lets it loose. One fixed seed —
  // a replayed script sees the identical fault schedule.
  std::unique_ptr<chaos::FaultInjector> injector;

  // The sampler (and an armed injector) always has its next tick
  // scheduled, so engine.run() would never return; bound the horizon.
  const auto settle = [&]() {
    s.engine.run_until(s.engine.now() + minutes(30));
  };

  auto& out = std::cout;
  out << "GRIPhoN shell — paper testbed loaded. 'help' for commands.\n";
  const std::vector<MuxponderId> sites{s.site_i, s.site_iii, s.site_iv};

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      out << "sites | topo | connect a b gbps [none|restore|1+1] | "
             "bundle a b gbps | disconnect id | cut link | repair link | "
             "maintain link | regroom id | wait s | dashboard | stats | "
             "telemetry [id | json [id] | save path] | trace save path | "
             "series [save path [csv]] | eventlog [n | save path] | dag | "
             "schedule a b tb hours | transfers | "
             "reserve link gbps start-s end-s | calendar | "
             "restoration [kick] | reopt [analyze | plan | run | stats] | "
             "chaos [plan preset [x] | arm | disarm | heal | stats | log] | "
             "quit\n";
    } else if (cmd == "sites") {
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const auto* site = s.model->site_by_nte(sites[i]);
        out << "  [" << i << "] " << site->name << " (PoP "
            << s.model->graph().node(site->core_pop).name << ")\n";
      }
    } else if (cmd == "topo") {
      for (const auto& l : s.model->graph().links())
        out << "  " << l.name << "  " << l.length().in_km() << " km"
            << (s.model->link_failed(l.id) ? "  [FAILED]" : "") << "\n";
    } else if (cmd == "connect" || cmd == "bundle") {
      std::size_t a = 0, b = 0;
      double gbps = 0;
      std::string prot = "restore";
      in >> a >> b >> gbps >> prot;
      if (a >= sites.size() || b >= sites.size() || gbps <= 0) {
        out << "  usage: connect <site> <site> <gbps> [none|restore|1+1]\n";
        continue;
      }
      const auto protection =
          prot == "none" ? core::ProtectionMode::kUnprotected
          : prot == "1+1" ? core::ProtectionMode::kOnePlusOne
                          : core::ProtectionMode::kRestorable;
      if (cmd == "connect") {
        s.portal->connect(sites[a], sites[b], DataRate::gbps(gbps),
                          protection, [&](Result<ConnectionId> r) {
                            if (r.ok())
                              out << "  connection " << r.value()
                                  << " ACTIVE after "
                                  << to_seconds(s.controller
                                                    ->connection(r.value())
                                                    .setup_duration)
                                  << " s\n";
                            else
                              out << "  FAILED: " << r.error() << "\n";
                          });
      } else {
        s.portal->connect_bundle(
            sites[a], sites[b], DataRate::gbps(gbps), protection,
            [&](Result<core::BundleId> r) {
              if (r.ok())
                out << "  bundle " << r.value() << " up ("
                    << s.portal->bundle(r.value()).parts.size()
                    << " circuits)\n";
              else
                out << "  FAILED: " << r.error() << "\n";
            });
      }
      settle();
    } else if (cmd == "disconnect") {
      std::uint64_t id = 0;
      in >> id;
      s.portal->disconnect(ConnectionId{id}, [&](Status st) {
        out << "  " << (st.ok() ? "released" : st.error().message()) << "\n";
      });
      settle();
    } else if (cmd == "cut" || cmd == "repair" || cmd == "maintain") {
      std::string name;
      in >> name;
      const auto link = link_by_name(*s.model, name);
      if (!link) {
        out << "  unknown link '" << name << "' (see: topo)\n";
        continue;
      }
      if (cmd == "cut")
        s.model->fail_link(*link);
      else if (cmd == "repair")
        s.model->repair_link(*link);
      else
        s.controller->prepare_maintenance(*link, [&](Status st) {
          out << "  maintenance prep: "
              << (st.ok() ? "traffic rolled off" : st.error().message())
              << "\n";
        });
      settle();
    } else if (cmd == "regroom") {
      std::uint64_t id = 0;
      in >> id;
      s.controller->regroom(ConnectionId{id}, [&](Status st) {
        out << "  " << (st.ok() ? "re-groomed" : st.error().message())
            << "\n";
      });
      settle();
    } else if (cmd == "wait") {
      double secs = 0;
      in >> secs;
      s.engine.run_until(s.engine.now() + from_seconds(secs));
      out << "  t=" << to_seconds(s.engine.now()) << " s\n";
    } else if (cmd == "dashboard") {
      out << s.portal->render_dashboard();
      out << "\nops dashboard (t=" << to_seconds(s.engine.now())
          << " s, sampling every " << to_seconds(sampler.period())
          << " s):\n";
      for (const std::string& name : sampler.names()) {
        const telemetry::TimeSeries* ts = sampler.series(name);
        if (ts == nullptr || ts->points().empty()) continue;
        const auto roll = ts->rollup();
        out << "  " << std::left << std::setw(28) << name << std::right
            << " " << std::setw(9) << roll.last << "  ["
            << ts->spark(40) << "]\n";
      }
      out << slo.render();
      if (tel.events().size() > 0) out << tel.events().render(5);
    } else if (cmd == "trace") {
      std::string sub, path;
      in >> sub >> path;
      if (sub != "save" || path.empty()) {
        out << "  usage: trace save <path>\n";
        continue;
      }
      std::ofstream file(path);
      if (!file) {
        out << "  cannot write '" << path << "'\n";
        continue;
      }
      file << telemetry::TraceExporter().to_json(tel) << "\n";
      out << "  wrote " << path << " (load in ui.perfetto.dev or "
             "chrome://tracing)\n";
    } else if (cmd == "series") {
      std::string sub, path, format;
      in >> sub >> path >> format;
      if (sub.empty()) {
        for (const std::string& name : sampler.names()) {
          const telemetry::TimeSeries* ts = sampler.series(name);
          if (ts == nullptr) continue;
          const auto roll = ts->rollup();
          out << "  " << std::left << std::setw(28) << name << std::right
              << " last " << roll.last << " min " << roll.min << " max "
              << roll.max << " mean " << roll.mean << "\n";
        }
      } else if (sub == "save" && !path.empty()) {
        std::ofstream file(path);
        if (!file) {
          out << "  cannot write '" << path << "'\n";
          continue;
        }
        file << (format == "csv" ? sampler.to_csv() : sampler.to_json());
        out << "  wrote " << path << "\n";
      } else {
        out << "  usage: series [save <path> [csv]]\n";
      }
    } else if (cmd == "eventlog") {
      std::string sub;
      in >> sub;
      if (sub == "save") {
        std::string path;
        in >> path;
        if (path.empty()) {
          out << "  usage: eventlog save <path>\n";
          continue;
        }
        std::ofstream file(path);
        if (!file) {
          out << "  cannot write '" << path << "'\n";
          continue;
        }
        file << tel.events().to_json() << "\n";
        out << "  wrote " << path << "\n";
      } else {
        std::size_t n = 20;
        if (!sub.empty()) std::istringstream(sub) >> n;
        out << tel.events().render(n);
      }
    } else if (cmd == "telemetry") {
      std::string arg;
      in >> arg;
      const telemetry::TimelineReport report(&tel.spans());
      if (arg.empty()) {
        out << tel.metrics().to_prometheus();
      } else if (arg == "json") {
        std::uint64_t id = 0;
        const bool scoped = static_cast<bool>(in >> id);
        out << tel.spans().to_json(
                   scoped ? core::telemetry_tag(ConnectionId{id}) : 0)
            << "\n";
      } else if (arg == "save") {
        std::string path;
        in >> path;
        if (path.empty()) {
          out << "  usage: telemetry save <path>\n";
          continue;
        }
        std::ofstream file(path);
        if (!file) {
          out << "  cannot write '" << path << "'\n";
          continue;
        }
        file << "{\"metrics\": " << tel.metrics().to_json_rows("shell")
             << ", \"spans\": " << tel.spans().to_json()
             << ", \"events\": " << tel.events().to_json() << "}\n";
        out << "  wrote " << path << "\n";
      } else {
        std::uint64_t id = 0;
        std::istringstream(arg) >> id;
        const std::string timeline =
            report.render(core::telemetry_tag(ConnectionId{id}));
        out << (timeline.empty()
                    ? "  no spans for connection " + arg + "\n"
                    : timeline);
      }
    } else if (cmd == "dag") {
      const auto& report = s.controller->last_dag_report();
      out << (report.steps.empty()
                  ? "  no DAG command train recorded yet (run a connect "
                    "with the default executor)\n"
                  : core::render_dag(report));
    } else if (cmd == "schedule") {
      std::size_t a = 0, b = 0;
      double tb = 0, hours_out = 0;
      in >> a >> b >> tb >> hours_out;
      if (a >= sites.size() || b >= sites.size() || a == b || tb <= 0 ||
          hours_out <= 0) {
        out << "  usage: schedule <site> <site> <terabytes> "
               "<deadline-hours-from-now>\n";
        continue;
      }
      bod::TransferScheduler::TransferRequest req;
      req.customer = s.csp;
      req.src_site = sites[a];
      req.dst_site = sites[b];
      req.bytes = static_cast<std::int64_t>(tb * 1e12);
      req.deadline = s.engine.now() + from_seconds(hours_out * 3600);
      const auto id = scheduler.submit(req);
      if (id.ok()) {
        const auto status = scheduler.inspect(s.csp, id.value());
        out << "  transfer " << id.value() << " scheduled, "
            << status.value().pieces << " piece(s), lands by t="
            << to_seconds(status.value().expected_completion) << " s\n";
      } else {
        out << "  REJECTED: " << id.error() << "\n";
      }
    } else if (cmd == "transfers") {
      out << scheduler.render();
    } else if (cmd == "reserve") {
      std::string name;
      double gbps = 0, start_s = 0, end_s = 0;
      in >> name >> gbps >> start_s >> end_s;
      const auto link = link_by_name(*s.model, name);
      if (!link || gbps <= 0 || end_s <= start_s) {
        out << "  usage: reserve <link> <gbps> <start-s> <end-s> "
               "(see: topo)\n";
        continue;
      }
      const auto resv = calendar.reserve(
          s.csp, {*link}, DataRate::gbps(gbps),
          {from_seconds(start_s), from_seconds(end_s)});
      if (resv.ok())
        out << "  reservation " << resv.value() << " holds "
            << gbps << "G on " << name << " [" << start_s << " s, "
            << end_s << " s)\n";
      else
        out << "  REJECTED: " << resv.error() << "\n";
    } else if (cmd == "calendar") {
      // Backbone fibers plus every site's access pipe, next 6 hours.
      std::vector<LinkId> links;
      for (const auto& l : s.model->graph().links()) links.push_back(l.id);
      for (const MuxponderId site : sites)
        links.push_back(scheduler.access_link(site));
      const std::string map = calendar.render(
          links, s.engine.now(), s.engine.now() + hours(6));
      out << (map.empty() ? "  calendar empty\n" : map);
    } else if (cmd == "stats") {
      const auto& st = s.controller->stats();
      out << "  setups " << st.setups_ok << "/"
          << st.setups_ok + st.setups_failed << ", releases " << st.releases
          << ", restorations " << st.restorations_ok << ", rolls "
          << st.rolls_ok << ", EMS commands " << st.commands_issued << "\n";
    } else if (cmd == "restoration") {
      std::string sub;
      in >> sub;
      if (sub == "kick") {
        s.controller->kick_restoration_backlog(/*reset_attempts=*/true);
        settle();
        out << "  backlog re-armed (" << s.controller->restoration_backlog_depth()
            << " entr(ies) remain)\n";
      } else {
        const auto& st = s.controller->stats();
        out << "  storm " << (s.controller->restoration_storm_active()
                                  ? "ACTIVE" : "clear")
            << " (" << s.controller->failure_manager().storms_seen()
            << " seen), queue " << s.controller->restoration_queue_depth()
            << ", in-flight " << s.controller->restorations_in_flight()
            << ", backlog " << s.controller->restoration_backlog_depth()
            << "\n";
        out << "  restorations ok " << st.restorations_ok << ", failed "
            << st.restorations_failed << ", retried " << st.restorations_retried
            << ", non-diverse " << st.restorations_non_diverse
            << "; preemptions " << st.preemptions_requested << " ("
            << st.bod_windows_preempted << " window(s) torn)\n";
      }
    } else if (cmd == "reopt") {
      std::string sub;
      in >> sub;
      if (sub.empty() || sub == "analyze") {
        const auto& report = reoptsvc.analyze();
        out << "  fragmentation mean " << report.mean_score << ", max "
            << report.max_score << " (" << report.fragmented_links
            << " fragmented link(s), " << report.total_used << " used / "
            << report.total_free << " free channels)\n"
            << "  continuity: " << report.stranded_pairs
            << " stranded pair(s), " << report.blocked_candidates
            << " blocked candidate route(s) of " << report.pairs_scored
            << " pairs probed\n";
        for (const auto& lf : report.links)
          if (lf.score > 0)
            out << "    " << s.model->graph().link(lf.link).name << ": score "
                << lf.score << " (largest free block "
                << lf.largest_free_block << " of " << lf.free << ")\n";
      } else if (sub == "plan") {
        const auto plan = reoptsvc.plan_now();
        if (plan.moves.empty()) {
          out << "  nothing to migrate (" << plan.items_considered
              << " live connection(s) considered)\n";
        } else {
          out << "  " << plan.moves.size() << " move(s) over "
              << plan.items_considered << " live connection(s):\n";
          for (const auto& mv : plan.moves) {
            out << "    connection " << mv.id.value() << " ->";
            for (const auto& seg : mv.target.segments)
              out << " ch" << seg.channel;
            out << "\n";
          }
        }
        const auto exempt = scheduler.migration_exempt_connections();
        if (!exempt.empty())
          out << "  (" << exempt.size()
              << " connection(s) exempt: in-window BoD transfers)\n";
      } else if (sub == "run") {
        bool done = false;
        reoptsvc.run_campaign(
            [&](const reopt::MigrationExecutor::CampaignReport& r) {
              done = true;
              out << "  campaign: " << r.moves_rolled << "/"
                  << r.moves_planned << " moved, " << r.moves_skipped
                  << " skipped, " << r.moves_failed << " failed, "
                  << r.cycle_breaks << " cycle break(s)"
                  << (r.aborted ? " — ABORTED: " + r.abort_reason : "")
                  << "\n";
            });
        settle();
        if (!done) out << "  campaign still draining (wait, then stats)\n";
      } else if (sub == "stats") {
        const auto& rs = reoptsvc.stats();
        out << "  analyses " << rs.analyses << ", campaigns "
            << rs.campaigns_completed << "/" << rs.campaigns_started
            << " (aborted " << rs.campaigns_aborted << "), moves rolled "
            << rs.moves_rolled << ", skipped " << rs.moves_skipped
            << ", failed " << rs.moves_failed << ", cycle breaks "
            << rs.cycle_breaks << "\n";
      } else {
        out << "  usage: reopt [analyze | plan | run | stats]\n";
      }
    } else if (cmd == "chaos") {
      std::string sub;
      in >> sub;
      if (sub == "plan") {
        std::string preset;
        double intensity = 1.0;
        in >> preset >> intensity;
        if (preset.empty()) {
          out << (injector ? injector->plan().render()
                           : "  no fault plan loaded (chaos plan "
                             "<none|ems-flaps|channel-loss|device-faults|"
                             "combined> [intensity])\n");
          continue;
        }
        const auto plan = chaos::FaultPlan::preset(preset);
        if (!plan.ok()) {
          out << "  " << plan.error() << "\n";
          continue;
        }
        if (injector) injector->disarm();
        injector = std::make_unique<chaos::FaultInjector>(
            s.model.get(), plan.value().scaled(intensity), /*seed=*/42);
        injector->set_telemetry(&tel);
        out << injector->plan().render();
      } else if (!injector) {
        out << "  load a plan first: chaos plan <preset> [intensity]\n";
      } else if (sub == "arm") {
        injector->arm();
        out << "  armed: " << injector->plan().name << "\n";
      } else if (sub == "disarm") {
        injector->disarm();
        out << "  disarmed (standing faults persist; chaos heal)\n";
      } else if (sub == "heal") {
        injector->heal_all();
        settle();
        out << "  all device faults repaired\n";
      } else if (sub == "stats") {
        const auto& is = injector->stats();
        const auto& cs = s.controller->stats();
        out << "  injected: nacks " << is.nacks_injected << ", slow "
            << is.slow_commands << ", crashes " << is.ems_crashes
            << ", drops " << is.frames_dropped << ", dups "
            << is.frames_duplicated << ", delays " << is.frames_delayed
            << ", ot-faults " << is.ot_faults << ", fxc-sticks "
            << is.fxc_sticks << "\n"
            << "  absorbed: retried " << cs.commands_retried << ", shed "
            << cs.commands_shed << ", resyncs " << cs.resync_runs
            << " (leaks " << cs.resync_leaks << ", drift "
            << cs.resync_drift << ")\n";
      } else if (sub == "log") {
        const std::string log = injector->render_log();
        out << (log.empty() ? "  fault log empty\n" : log);
      } else {
        out << "  usage: chaos [plan preset [x] | arm | disarm | heal | "
               "stats | log]\n";
      }
    } else {
      out << "  unknown command '" << cmd << "' (help)\n";
    }
  }
  return 0;
}
