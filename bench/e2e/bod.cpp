// bod: deadline-driven bulk transfers (0.5-8 TB, deadlines 1.4-5x the
// ideal 10G transfer time) submitted to the TransferScheduler on
// bench_calendar's plant with the OTN layer on, so the composable rate
// ladder grooms sub-wavelength circuits. Product telemetry, the gauge
// sampler and the SLO monitor run as an operator would run them: this is
// the one workload whose timed runs pay for armed telemetry.
#include <algorithm>
#include <cmath>
#include <optional>

#include "bod/admission.hpp"
#include "bod/observability.hpp"
#include "bod/reservation_calendar.hpp"
#include "bod/transfer_scheduler.hpp"
#include "common/rng.hpp"
#include "core/network_model.hpp"
#include "core/observability.hpp"
#include "harness.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/slo.hpp"

namespace e2e {

namespace {

constexpr std::size_t kCustomers = 3;
constexpr std::size_t kSitesPerCustomer = 4;
constexpr double kArrivalsPerHour = 15;
constexpr double kTB = 1099511627776.0;

struct Submission {
  SimTime at{};
  std::size_t customer = 0;
  std::size_t src = 0;  ///< index into the customer's sites
  std::size_t dst = 0;
  std::int64_t bytes = 0;
  SimTime deadline{};
};

/// Exactly `count` Poisson submissions from the seed.
std::vector<Submission> generate(std::size_t count, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  std::vector<Submission> out;
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(3600.0 / kArrivalsPerHour);
    Submission s;
    s.at = from_seconds(t);
    s.customer = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kCustomers) - 1));
    s.src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kSitesPerCustomer) - 1));
    do {
      s.dst = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(kSitesPerCustomer) - 1));
    } while (s.dst == s.src);
    // Log-uniform 0.5-8 TB.
    s.bytes = static_cast<std::int64_t>(
        std::exp(rng.uniform(std::log(0.5 * kTB), std::log(8.0 * kTB))));
    const SimTime ideal = transfer_time(s.bytes, rates::k10G);
    s.deadline = s.at + from_seconds(rng.uniform(1.4, 5.0) * to_seconds(ideal));
    out.push_back(s);
  }
  return out;
}

/// Everything set-up builds: plant with telemetry armed, controller,
/// calendar, admission, scheduler, portals, sampler and SLO monitor, and
/// the pre-generated submissions.
struct World {
  World(const Options& options, std::size_t submissions)
      : graph(backbone()),
        dcs(pick_nodes(graph, kCustomers * kSitesPerCustomer, 977)),
        engine(options.seed),
        sink(&engine),
        model(&engine, graph, plant()),
        controller(&model, {}),
        calendar(calendar_params()),
        admission(&engine),
        scheduler(&controller, &calendar, &admission),
        sampler(&engine, &sink),
        slo(&engine, &sink),
        records(generate(submissions, options.seed)) {
    model.attach_telemetry(&sink);
    sites.resize(kCustomers);
    for (std::size_t c = 0; c < kCustomers; ++c) {
      const CustomerId customer{c + 1};
      portals.push_back(std::make_unique<core::CustomerPortal>(
          &controller, customer, DataRate::gbps(400)));
      scheduler.register_portal(portals.back().get());
      for (std::size_t s = 0; s < kSitesPerCustomer; ++s)
        sites[c].push_back(model
                               .add_customer_site(
                                   customer,
                                   "DC-" + std::to_string(c) + "-" +
                                       std::to_string(s),
                                   dcs[c * kSitesPerCustomer + s])
                               .nte);
      bod::AdmissionController::CustomerPolicy policy;
      policy.bandwidth_quota = DataRate::gbps(500);
      policy.requests_per_second = 1000;
      admission.set_policy(customer, policy);
    }
    core::install_standard_probes(sampler, controller, model);
    std::vector<LinkId> links;
    for (const auto& l : graph.links()) links.push_back(l.id);
    bod::install_calendar_probes(sampler, calendar, engine, links);
    const auto& m = sink.metrics();
    slo.add_objective(telemetry::setup_latency_objective(m, 60));
    slo.add_objective(telemetry::restoration_time_objective(m, 100));
    slo.add_objective(telemetry::blocking_rate_objective(m, 0.2));
    slo.add_objective(telemetry::bod_deadline_miss_objective(m, 0.05));
    slo.add_objective(telemetry::restoration_backlog_objective(m, 8));
    sampler.start(minutes(1));
    slo.start(minutes(1));
  }

  static core::NetworkModel::Config plant() {
    core::NetworkModel::Config cfg;
    cfg.with_otn = true;
    cfg.ots_per_node = 64;
    cfg.regens_per_node = 32;
    cfg.fxc_ports_per_node = 128;
    return cfg;
  }
  static bod::ReservationCalendar::Params calendar_params() {
    bod::ReservationCalendar::Params p;
    p.default_link_capacity = rates::k40G;  // contended: 4 waves per span
    return p;
  }

  topology::Graph graph;
  std::vector<NodeId> dcs;
  sim::Engine engine;
  telemetry::Telemetry sink;
  core::NetworkModel model;
  core::GriphonController controller;
  bod::ReservationCalendar calendar;
  bod::AdmissionController admission;
  bod::TransferScheduler scheduler;
  std::vector<std::unique_ptr<core::CustomerPortal>> portals;
  std::vector<std::vector<MuxponderId>> sites;
  telemetry::GaugeSampler sampler;
  telemetry::SloMonitor slo;
  std::vector<Submission> records;
};

}  // namespace

Report run_bod(const Options& options) {
  Report report;
  // Half a day / seven and a half days of arrivals.
  const std::size_t submissions = options.size == Size::kSmoke ? 180 : 2700;
  double setup_s = 0;
  const std::unique_ptr<World> world = build_timed(
      [&] { return std::make_unique<World>(options, submissions); }, &setup_s);
  const auto& dcs = world->dcs;
  sim::Engine& engine = world->engine;
  telemetry::Telemetry& sink = world->sink;
  core::NetworkModel& model = world->model;
  core::GriphonController& controller = world->controller;
  bod::ReservationCalendar& calendar = world->calendar;
  bod::TransferScheduler& scheduler = world->scheduler;
  const auto& portals = world->portals;
  const auto& sites = world->sites;
  const std::vector<Submission>& records = world->records;
  SimTime last_deadline{};
  for (const Submission& s : records)
    last_deadline = std::max(last_deadline, s.deadline);

  // --- timed phase ---------------------------------------------------------
  Spans spans(options.trace);
  std::optional<Probes> probes;
  if (options.trace) probes.emplace(spans, model, controller);

  std::vector<std::optional<TransferId>> accepted(records.size());
  std::size_t blocked = 0;
  std::size_t errors = 0;
  std::size_t reservations_max = 0;
  std::size_t circuits_max = 0;

  const auto timed_t0 = WallClock::now();
  for (std::size_t r = 0; r < records.size(); ++r) {
    const Submission& sub = records[r];
    const std::uint64_t op = r + 1;
    Spans::Scope root(spans, "input.submit", op);
    {
      Spans::Scope s(spans, "sim.slice", op);
      engine.run_until(sub.at);
    }
    if (probes) {
      probes->at_input(op);
      probes->plans(op, dcs[sub.customer * kSitesPerCustomer + sub.src],
                    dcs[sub.customer * kSitesPerCustomer + sub.dst], {});
      probes->provisioned(op, *portals[sub.customer]);
      reservations_max =
          std::max(reservations_max, calendar.active_reservations());
      circuits_max = std::max(circuits_max, model.otn().circuit_count());
    }
    const bod::TransferScheduler::TransferRequest req{
        CustomerId{sub.customer + 1}, sites[sub.customer][sub.src],
        sites[sub.customer][sub.dst], sub.bytes, sub.deadline,
        bod::Priority::kBestEffortBulk};
    const Result<TransferId> result = [&] {
      Spans::Scope s(spans, "bod.submit", op);
      return scheduler.submit(req);
    }();
    if (result.ok()) {
      accepted[r] = result.value();
    } else if (is_blocking(result.error())) {
      ++blocked;
    } else {
      ++errors;
      report.error(result.error().message());
    }
  }
  {
    // Every window ends by the last deadline; the sampler and the SLO
    // monitor tick forever, so stop them before draining the rest.
    Spans::Scope s(spans, "sim.drain", 0);
    engine.run_until(last_deadline + hours(6));
    world->sampler.stop();
    world->slo.stop();
    engine.run();
  }
  const double timed_s = seconds_since(timed_t0);

  // --- correctness ---------------------------------------------------------
  std::size_t open = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (!accepted[r]) continue;
    const auto status =
        scheduler.inspect(CustomerId{records[r].customer + 1}, *accepted[r]);
    if (!status.ok() ||
        (status.value().state !=
             bod::TransferScheduler::TransferState::kCompleted &&
         status.value().state !=
             bod::TransferScheduler::TransferState::kFailed))
      ++open;
  }
  report.check("every_transfer_terminal", open == 0,
               std::to_string(open) + " transfer(s) not completed or failed");
  report.check("quiescent_after_drain",
               controller.quiescent() && controller.active_connections() == 0,
               std::to_string(controller.active_connections()) + " active");
  report.check("backlog_empty_and_storm_clear",
               controller.restoration_backlog_depth() == 0 &&
                   !controller.restoration_storm_active());
  report_digest(controller, report);

  const auto conns = connection_records(controller, report);
  report_connections(conns, report);
  resync_until_clean(engine, controller, spans, report);

  // --- metrics -------------------------------------------------------------
  using K = Report::Kind;
  const auto& st = scheduler.stats();
  const double n = static_cast<double>(records.size());
  report_wall(setup_s, timed_s, records.size(), report);
  report.scalar("submissions", n, "count", K::kSim);
  report.scalar("blocked", static_cast<double>(blocked), "count", K::kSim);
  report.scalar("errors", static_cast<double>(errors), "count", K::kSim);
  report.scalar("blocking_pct", 100.0 * static_cast<double>(blocked) / n, "%",
                K::kSim);
  report.scalar("error_pct", 100.0 * static_cast<double>(errors) / n, "%",
                K::kSim);
  report.scalar("deadline_met_pct",
                100.0 * static_cast<double>(st.deadline_met) / n, "%",
                K::kSim);

  if (options.trace) {
    report_layers(spans, *probes, engine, model, controller, sink,
                  records.size(), report);
    report_span_samples(spans.durations_us(), "bod.submit", "bod.submit_us",
                        "us", 1.0, report);
    report.scalar("bod.accept_pct",
                  100.0 * static_cast<double>(st.accepted) / n, "%",
                  K::kLayer);
    report.scalar("bod.splits", static_cast<double>(st.splits), "count",
                  K::kLayer);
    report.scalar("bod.reschedules", static_cast<double>(st.reschedules),
                  "count", K::kLayer);
    report.scalar("bod.setup_retries", static_cast<double>(st.setup_retries),
                  "count", K::kLayer);
    report.scalar("bod.calendar_reservations_max",
                  static_cast<double>(reservations_max), "count", K::kLayer);
    report.scalar("otn.circuits", static_cast<double>(circuits_max), "count",
                  K::kLayer);
    spans.write_chrome_trace("trace_e2e_bod.json");
  }
  return report;
}

}  // namespace e2e
