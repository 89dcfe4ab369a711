// churn, storm and reopt: the workloads where customers buy 10G restorable
// circuits through their portals, open loop in simulated time.
//
//  churn  heavy short-lived setup/teardown traffic on a roomy plant; loads
//         the setup path and the growing connection history.
//  storm  long-lived tiered circuits under a schedule of SRLG conduit cuts;
//         loads failure handling, the restoration pipeline and cold RWA.
//  reopt  churn on a spectrum-tight plant with an hourly fragmentation
//         tick that launches bridge-and-roll campaigns.
#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <set>

#include "common/rng.hpp"
#include "core/network_model.hpp"
#include "harness.hpp"
#include "reopt/service.hpp"

namespace e2e {

namespace {

/// A workload's plant and offered load. Input counts are fixed, so every
/// seed offers the same amount of work; the seed moves only when and
/// between whom it arrives.
struct Shape {
  std::size_t dcs = 16;
  std::size_t customers = 16;
  core::NetworkModel::Config cfg;
  core::GriphonController::Params params;
  std::size_t requests = 0;
  double arrivals_per_hour = 80;
  SimTime mean_holding = hours(2);
  bool tiers = false;
  // storm
  std::size_t conduits = 0;
  std::size_t conduit_fibers = 3;
  std::size_t cuts = 0;
  SimTime splice_after = hours(2);
  // reopt
  bool reopt = false;
  double trip_score = 0.02;
  /// Change freeze: while a live circuit is out of service, restoring or
  /// rolling, or a reopt campaign runs, new orders wait at the portal (in
  /// arrival order) and go in one by one once it lifts. Without it the
  /// controller lets a setup take a transponder that a backlogged
  /// restoration or a finishing roll still owns, and the setup fails on the
  /// collision.
  bool freeze = false;
};

Shape shape_for(const Options& o) {
  const bool smoke = o.size == Size::kSmoke;
  Shape s;
  s.cfg.with_otn = false;
  if (o.workload == "reopt") {
    // bench_reopt's tight plant: 8 channels, so fragmentation blocks.
    s.dcs = 12;
    s.customers = 8;
    s.cfg.channels = 8;
    s.cfg.ots_per_node = 24;
    s.cfg.regens_per_node = 8;
    s.cfg.fxc_ports_per_node = 128;
    s.arrivals_per_hour = 20;
    s.requests = smoke ? 480 : 10080;  // one day / three weeks
    s.reopt = true;
    s.freeze = true;
    return s;
  }
  s.cfg.channels = 32;
  s.cfg.ots_per_node = 64;
  s.cfg.regens_per_node = 16;
  s.cfg.fxc_ports_per_node = 192;
  if (o.workload == "storm") {
    s.arrivals_per_hour = 6;
    s.mean_holding = hours(24);
    s.requests = smoke ? 288 : 6048;  // two days / six weeks
    s.tiers = true;
    s.conduits = 20;
    s.cuts = smoke ? 16 : 336;  // one every 3 h on average
    s.params.restoration.max_concurrent = 8;
    s.params.restoration.per_domain_inflight = 8;
    s.freeze = true;
    return s;
  }
  s.requests = smoke ? 960 : 7680;  // half a day / four days
  return s;
}

struct Record {
  enum class Kind : std::uint8_t { kRequest, kCut, kTick };
  SimTime at{};
  Kind kind = Kind::kRequest;
  std::size_t customer = 0;
  std::size_t src = 0;  ///< DC index
  std::size_t dst = 0;
  SimTime holding{};
  core::ServiceTier tier = core::ServiceTier::kSilver;
  std::size_t conduit = 0;
};

/// Every input of the run, from the seed alone, in time order: Poisson
/// arrivals, cuts at uniform times over the arrival span (a Poisson
/// process conditioned on its count), hourly reopt ticks.
std::vector<Record> generate(const Shape& s, std::uint64_t seed) {
  std::vector<Record> out;
  Rng req(seed * 0x9E3779B97F4A7C15ULL + 1);
  double t = 0;
  for (std::size_t i = 0; i < s.requests; ++i) {
    t += req.exponential(3600.0 / s.arrivals_per_hour);
    Record r;
    r.at = from_seconds(t);
    r.customer = static_cast<std::size_t>(
        req.uniform_int(0, static_cast<std::int64_t>(s.customers) - 1));
    r.src = static_cast<std::size_t>(
        req.uniform_int(0, static_cast<std::int64_t>(s.dcs) - 1));
    do {
      r.dst = static_cast<std::size_t>(
          req.uniform_int(0, static_cast<std::int64_t>(s.dcs) - 1));
    } while (r.dst == r.src);
    r.holding = from_seconds(req.exponential(to_seconds(s.mean_holding)));
    if (s.tiers)
      r.tier = static_cast<core::ServiceTier>(req.uniform_int(0, 2));
    out.push_back(r);
  }
  const double span = t;
  if (s.cuts > 0) {
    Rng cut(seed * 0x9E3779B97F4A7C15ULL + 2);
    std::vector<double> times;
    for (std::size_t i = 0; i < s.cuts; ++i)
      times.push_back(cut.uniform(0.0, span));
    std::sort(times.begin(), times.end());
    std::vector<SimTime> down_until(s.conduits, SimTime{});
    for (const double when : times) {
      const SimTime at = from_seconds(when);
      std::vector<std::size_t> intact;
      for (std::size_t c = 0; c < s.conduits; ++c)
        if (down_until[c] <= at) intact.push_back(c);
      if (intact.empty()) continue;
      Record r;
      r.at = at;
      r.kind = Record::Kind::kCut;
      r.conduit = intact[static_cast<std::size_t>(cut.uniform_int(
          0, static_cast<std::int64_t>(intact.size()) - 1))];
      down_until[r.conduit] = at + s.splice_after;
      out.push_back(r);
    }
  }
  if (s.reopt) {
    for (SimTime at = hours(1); at < from_seconds(span); at += hours(1)) {
      Record r;
      r.at = at;
      r.kind = Record::Kind::kTick;
      out.push_back(r);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) { return a.at < b.at; });
  return out;
}

/// Disjoint fiber triples acting as shared conduits, each marked as one
/// SRLG on `graph` (a fixed plant property, like the backbone itself).
std::vector<std::vector<LinkId>> pick_conduits(topology::Graph& graph,
                                               std::size_t conduits,
                                               std::size_t fibers) {
  Rng rng(977);
  std::vector<LinkId> links;
  for (const auto& l : graph.links()) links.push_back(l.id);
  for (std::size_t i = 0; i + 1 < links.size(); ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(links.size()) - 1));
    std::swap(links[i], links[j]);
  }
  std::vector<std::vector<LinkId>> out(conduits);
  for (std::size_t c = 0; c < conduits; ++c)
    for (std::size_t f = 0; f < fibers; ++f) {
      out[c].push_back(links.at(c * fibers + f));
      graph.set_srlg(out[c].back(), static_cast<int>(c));
    }
  return out;
}

/// Per-request bookkeeping: exactly one setup outcome, then (if it came up)
/// exactly one release outcome.
struct Request {
  int setup_outcomes = 0;
  bool up = false;
  ConnectionId id{};
  int release_outcomes = 0;
  SimTime submitted{};   ///< when the portal sent it in (after any freeze)
  SimTime not_before{};  ///< storm: splice of the last open cut that hit it
};

/// One (cut, affected connection) restoration sample.
struct CutVictim {
  std::size_t request = 0;
  ConnectionId id{};
  SimTime outage_before{};
};

struct OpenCut {
  std::size_t record = 0;
  std::vector<CutVictim> victims;
};

/// A harness-side consequence of an input, due at a sim time.
struct Due {
  SimTime at{};
  int order = 0;  ///< at equal times: splices, releases, freeze polls
  std::uint64_t seq = 0;
  std::size_t index = 0;  ///< request index or open-cut index
  bool operator>(const Due& o) const {
    if (at != o.at) return at > o.at;
    if (order != o.order) return order > o.order;
    return seq > o.seq;
  }
};

/// Everything set-up builds: plant, controller, sites, portals, reopt
/// service and the pre-generated inputs.
struct World {
  World(const Shape& shape, const Options& options)
      : graph(backbone()),
        conduits(pick_conduits(graph, shape.conduits, shape.conduit_fibers)),
        dcs(pick_nodes(graph, shape.dcs, 977)),
        engine(options.seed),
        sink(options.trace ? std::make_unique<telemetry::Telemetry>(&engine)
                           : nullptr),
        model(&engine, graph, shape.cfg),
        controller(&model, shape.params),
        records(generate(shape, options.seed)) {
    model.attach_telemetry(sink.get());
    sites.resize(shape.customers);
    for (std::size_t c = 0; c < shape.customers; ++c) {
      const CustomerId customer{c + 1};
      for (std::size_t d = 0; d < dcs.size(); ++d)
        sites[c].push_back(
            model
                .add_customer_site(customer,
                                   "C" + std::to_string(c) + "-DC" +
                                       std::to_string(d),
                                   dcs[d])
                .nte);
      // Quota far above what the access pipes allow: refusals come from
      // capacity, never from the quota.
      portals.push_back(std::make_unique<core::CustomerPortal>(
          &controller, customer, DataRate::gbps(100000)));
    }
    if (shape.reopt) {
      reopt::ReoptService::Params rp;
      rp.trip_threshold = shape.trip_score;
      rp.min_moves = 1;
      rp.max_moves_per_campaign = 32;
      for (std::size_t a = 0; a < dcs.size(); ++a)
        for (std::size_t b = a + 1; b < dcs.size(); ++b)
          rp.pairs.emplace_back(dcs[a], dcs[b]);
      service = std::make_unique<reopt::ReoptService>(&controller, rp);
    }
  }

  topology::Graph graph;
  std::vector<std::vector<LinkId>> conduits;
  std::vector<NodeId> dcs;
  sim::Engine engine;
  std::unique_ptr<telemetry::Telemetry> sink;
  core::NetworkModel model;
  core::GriphonController controller;
  std::vector<std::vector<MuxponderId>> sites;
  std::vector<std::unique_ptr<core::CustomerPortal>> portals;
  std::unique_ptr<reopt::ReoptService> service;
  std::vector<Record> records;
};

}  // namespace

Report run_circuits(const Options& options) {
  Report report;
  const Shape shape = shape_for(options);
  double setup_s = 0;
  const std::unique_ptr<World> world =
      build_timed([&] { return std::make_unique<World>(shape, options); },
                  &setup_s);
  const auto& conduits = world->conduits;
  const auto& dcs = world->dcs;
  sim::Engine& engine = world->engine;
  core::NetworkModel& model = world->model;
  telemetry::Telemetry* sink = world->sink.get();
  core::GriphonController& controller = world->controller;
  const auto& sites = world->sites;
  const auto& portals = world->portals;
  reopt::ReoptService* service = world->service.get();
  const std::vector<Record>& records = world->records;
  std::size_t request_count = 0;
  for (const Record& r : records)
    if (r.kind == Record::Kind::kRequest) ++request_count;

  // --- timed phase ---------------------------------------------------------
  Spans spans(options.trace);
  std::optional<Probes> probes;
  if (options.trace) probes.emplace(spans, model, controller);

  std::vector<Request> requests(records.size());
  std::vector<OpenCut> cuts;
  std::priority_queue<Due, std::vector<Due>, std::greater<>> due;
  std::uint64_t due_seq = 0;
  std::set<std::size_t> live;  // requests whose connection is up or failed
  std::size_t blocked = 0;
  std::size_t errors = 0;
  std::size_t release_attempts = 0;
  std::deque<std::size_t> held;  // requests waiting out a change freeze
  std::size_t held_total = 0;
  bool poll_pending = false;
  std::size_t spliced = 0;
  std::vector<double> restore;
  std::size_t unrestored = 0;
  std::size_t campaigns_launched = 0;
  std::size_t campaigns_done = 0;
  double frag_sum = 0;
  std::size_t ticks = 0;
  std::size_t backlog_max = 0;
  bool in_call = false;
  bool busy = false;

  const auto push_release = [&](std::size_t r, SimTime at) {
    due.push(Due{std::max(at, engine.now()), 1, ++due_seq, r});
  };

  const auto connect = [&](std::size_t r, std::uint64_t op) {
    const Record& rec = records[r];
    requests[r].submitted = engine.now();
    if (probes) {
      probes->plans(op, dcs[rec.src], dcs[rec.dst], {});
      probes->provisioned(op, *portals[rec.customer]);
    }
    Spans::Scope s(spans, "core.portal.connect", op);
    portals[rec.customer]->connect(
        sites[rec.customer][rec.src], sites[rec.customer][rec.dst],
        rates::k10G, core::ProtectionMode::kRestorable,
        [&, r](Result<ConnectionId> result) {
          Request& q = requests[r];
          ++q.setup_outcomes;
          if (result.ok()) {
            q.up = true;
            q.id = result.value();
            live.insert(r);
            push_release(r, q.submitted + records[r].holding);
          } else if (is_blocking(result.error())) {
            ++blocked;
          } else {
            ++errors;
            report.error("setup: " + result.error().message());
          }
        },
        rec.tier);
  };

  const auto frozen = [&] {
    if (!shape.freeze) return false;
    if (service != nullptr && service->campaign_in_progress()) return true;
    return std::any_of(live.begin(), live.end(), [&](std::size_t q) {
      const core::Connection* c = controller.find_connection(requests[q].id);
      return c != nullptr && c->state != core::ConnectionState::kActive;
    });
  };

  // Submit the oldest waiting order unless a freeze holds, and come back
  // in two minutes while any wait: after a freeze the portal works off its
  // queue one order at a time, not in one burst of setups.
  const auto submit_held = [&] {
    if (!held.empty() && !frozen()) {
      const std::size_t r = held.front();
      held.pop_front();
      if (engine.now() > records[r].at) ++held_total;
      connect(r, r + 1);
    }
    if (!held.empty() && !poll_pending) {
      poll_pending = true;
      due.push(Due{engine.now() + seconds(120), 2, ++due_seq, 0});
    }
  };

  const auto release = [&](std::size_t r, std::uint64_t op) {
    Request& q = requests[r];
    if (q.not_before > engine.now()) {
      push_release(r, q.not_before);
      return;
    }
    // An out-of-service circuit is given back only once restored: the
    // controller's teardown of a backlogged restoration fails on devices
    // the failed attempt already released.
    const core::Connection* c = controller.find_connection(q.id);
    if (c != nullptr && c->state == core::ConnectionState::kFailed) {
      push_release(r, engine.now() + seconds(30));
      return;
    }
    busy = false;
    in_call = true;
    {
      Spans::Scope s(spans, "core.portal.disconnect", op);
      portals[records[r].customer]->disconnect(q.id, [&, r](Status status) {
        if (in_call && !status.ok() &&
            status.error().code() == ErrorCode::kBusy) {
          busy = true;  // mid-restoration or mid-roll: try again later
          return;
        }
        ++requests[r].release_outcomes;
        live.erase(r);
        if (!status.ok()) {
          ++errors;
          report.error("release: " + status.error().message());
        }
      });
    }
    in_call = false;
    if (busy)
      push_release(r, engine.now() + seconds(30));
    else
      ++release_attempts;
  };

  const auto cut = [&](std::size_t r, std::uint64_t op) {
    const std::vector<LinkId>& conduit = conduits[records[r].conduit];
    OpenCut open;
    open.record = r;
    for (const std::size_t q : live) {
      const core::Connection* c = controller.find_connection(requests[q].id);
      if (c == nullptr || !c->is_up()) continue;
      if (std::none_of(conduit.begin(), conduit.end(), [&](LinkId l) {
            return c->plan.path.uses_link(l);
          }))
        continue;
      open.victims.push_back(CutVictim{q, c->id, c->total_outage});
    }
    {
      Spans::Scope s(spans, "core.network.fail_link", op);
      for (const LinkId l : conduit) model.fail_link(l);
    }
    const SimTime splice_at = records[r].at + shape.splice_after;
    for (const CutVictim& v : open.victims)
      requests[v.request].not_before =
          std::max(requests[v.request].not_before, splice_at);
    if (probes) {
      core::Exclusions avoid;
      avoid.links.insert(conduit.begin(), conduit.end());
      for (const CutVictim& v : open.victims) {
        const core::Connection& c = controller.connection(v.id);
        probes->cold_plan(op, c.src_pop, c.dst_pop, avoid);
      }
    }
    cuts.push_back(std::move(open));
    due.push(Due{splice_at, 0, ++due_seq, cuts.size() - 1});
  };

  const auto splice = [&](std::size_t k, std::uint64_t op) {
    const OpenCut& open = cuts[k];
    for (const CutVictim& v : open.victims) {
      const core::Connection& c = controller.connection(v.id);
      if (c.is_up()) {
        restore.push_back(to_seconds(c.total_outage - v.outage_before));
      } else {
        restore.push_back(std::numeric_limits<double>::infinity());
        ++unrestored;
      }
    }
    Spans::Scope s(spans, "core.network.repair_link", op);
    for (const LinkId l : conduits[records[open.record].conduit])
      model.repair_link(l);
    ++spliced;
  };

  const auto tick = [&](std::uint64_t op) {
    double score = 0;
    {
      Spans::Scope s(spans, "reopt.analyze", op);
      score = service->analyze().mean_score;
    }
    frag_sum += score;
    ++ticks;
    if (score < shape.trip_score || controller.restoration_storm_active() ||
        service->campaign_in_progress())
      return;
    ++campaigns_launched;
    Spans::Scope s(spans, "reopt.campaign", op);
    service->run_campaign(
        [&](const reopt::MigrationExecutor::CampaignReport&) {
          ++campaigns_done;
        });
  };

  const auto slice = [&](SimTime at, std::uint64_t op) {
    Spans::Scope s(spans, "sim.slice", op);
    engine.run_until(at);
  };

  // Releases and held orders wait on restoration; a plant that never
  // recovers would make them wait for ever.
  const SimTime give_up =
      (records.empty() ? SimTime{} : records.back().at) + hours(24 * 30);
  const auto timed_t0 = WallClock::now();
  std::size_t next = 0;
  while (true) {
    const bool have_record = next < records.size();
    if (!have_record && due.empty()) {
      {
        Spans::Scope s(spans, "sim.drain", 0);
        engine.run();
      }
      if (due.empty()) break;
      continue;
    }
    // Consequences (splices, releases) go before a record due at the same
    // instant.
    if (!due.empty() && (!have_record || due.top().at <= records[next].at)) {
      const Due d = due.top();
      if (!have_record && d.at > give_up) break;  // stuck: the checks fail
      due.pop();
      if (d.order == 0) {
        const std::uint64_t op = cuts[d.index].record + 1;
        Spans::Scope root(spans, "input.splice", op);
        slice(d.at, op);
        if (probes) probes->at_input(op);
        splice(d.index, op);
      } else if (d.order == 1) {
        const std::uint64_t op = d.index + 1;
        Spans::Scope root(spans, "input.release", op);
        slice(d.at, op);
        if (probes) probes->at_input(op);
        release(d.index, op);
      } else {
        Spans::Scope root(spans, "input.held", 0);
        slice(d.at, 0);
        poll_pending = false;
        submit_held();
      }
      continue;
    }
    const std::size_t r = next++;
    const std::uint64_t op = r + 1;
    const Record& rec = records[r];
    const char* name = rec.kind == Record::Kind::kRequest ? "input.request"
                       : rec.kind == Record::Kind::kCut   ? "input.cut"
                                                          : "input.tick";
    Spans::Scope root(spans, name, op);
    slice(rec.at, op);
    if (probes) {
      probes->at_input(op);
      backlog_max =
          std::max(backlog_max, controller.restoration_backlog_depth());
    }
    switch (rec.kind) {
      case Record::Kind::kRequest:
        held.push_back(r);
        submit_held();
        break;
      case Record::Kind::kCut:
        cut(r, op);
        break;
      case Record::Kind::kTick:
        tick(op);
        break;
    }
  }
  const double timed_s = seconds_since(timed_t0);

  // --- correctness ---------------------------------------------------------
  std::size_t missing = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (records[r].kind != Record::Kind::kRequest) continue;
    const Request& q = requests[r];
    if (q.setup_outcomes != 1 || (q.up && q.release_outcomes != 1)) ++missing;
  }
  std::size_t cut_count = 0;
  for (const Record& rec : records)
    if (rec.kind == Record::Kind::kCut) ++cut_count;
  if (spliced != cut_count) missing += cut_count - spliced;
  if (campaigns_done != campaigns_launched)
    missing += campaigns_launched - campaigns_done;
  report.check("one_terminal_outcome_per_input", missing == 0,
               std::to_string(missing) + " input(s) without exactly one");
  report.check("quiescent_after_drain",
               controller.quiescent() && controller.active_connections() == 0,
               std::to_string(controller.active_connections()) + " active");
  report.check("backlog_empty_and_storm_clear",
               controller.restoration_backlog_depth() == 0 &&
                   !controller.restoration_storm_active(),
               std::to_string(controller.restoration_backlog_depth()) +
                   " backlogged");
  report_digest(controller, report);

  const auto conns = connection_records(controller, report);
  report_connections(conns, report);
  resync_until_clean(engine, controller, spans, report);

  // --- metrics -------------------------------------------------------------
  using K = Report::Kind;
  report_wall(setup_s, timed_s, records.size(), report);
  const double requests_n = static_cast<double>(request_count);
  report.scalar("requests", requests_n, "count", K::kSim);
  report.scalar("blocked", static_cast<double>(blocked), "count", K::kSim);
  report.scalar("errors", static_cast<double>(errors), "count", K::kSim);
  report.scalar("held", static_cast<double>(held_total), "count", K::kSim);
  report.scalar("blocking_pct", 100.0 * static_cast<double>(blocked) / requests_n,
                "%", K::kSim);
  report.scalar("error_pct",
                100.0 * static_cast<double>(errors) /
                    (requests_n + static_cast<double>(release_attempts)),
                "%", K::kSim);
  if (shape.conduits > 0) {
    const double samples = static_cast<double>(restore.size());
    report.scalar("cuts", static_cast<double>(cut_count), "count", K::kSim);
    report.samples("restore", restore, "s", K::kSim,
                   {{"restore_p50_s", 0.5}, {"restore_p95_s", 0.95}},
                   "restore_n");
    report.scalar("unrestored_pct",
                  samples > 0 ? 100.0 * static_cast<double>(unrestored) / samples
                              : 0.0,
                  "%", K::kSim);
  }

  if (options.trace) {
    report_layers(spans, *probes, engine, model, controller, *sink,
                  records.size(), report);
    report.scalar("core.restore.backlog_max", static_cast<double>(backlog_max),
                  "count", K::kLayer);
    // Wait in the tier-ordered restoration queue: from the localization
    // that follows a cut to the victim's first restoration attempt.
    std::vector<SimTime> localized;
    std::map<std::uint64_t, std::vector<SimTime>> attempts;
    for (const telemetry::Span& s : sink->spans().spans()) {
      if (!s.done) continue;
      if (s.name == "localize") localized.push_back(s.end);
      if (s.name == "restoration") attempts[s.tag].push_back(s.start);
    }
    std::sort(localized.begin(), localized.end());
    for (auto& [tag, starts] : attempts) std::sort(starts.begin(), starts.end());
    std::vector<double> waits;
    for (const OpenCut& open : cuts) {
      const SimTime cut_at = records[open.record].at;
      const auto loc =
          std::lower_bound(localized.begin(), localized.end(), cut_at);
      if (loc == localized.end()) continue;
      for (const CutVictim& v : open.victims) {
        const auto& starts = attempts[core::telemetry_tag(v.id)];
        const auto first =
            std::lower_bound(starts.begin(), starts.end(), *loc);
        if (first == starts.end() || *first > cut_at + shape.splice_after)
          continue;
        waits.push_back(to_seconds(*first - *loc));
      }
    }
    report.samples("core.restore.queue_wait_s", std::move(waits), "s",
                   K::kLayer, {{"core.restore.queue_wait_s_p95", 0.95}},
                   "core.restore.queue_wait_s_n");
    if (service) {
      const auto& st = service->stats();
      report.scalar("reopt.moves_rolled", static_cast<double>(st.moves_rolled),
                    "count", K::kLayer);
      report.scalar("reopt.moves_failed", static_cast<double>(st.moves_failed),
                    "count", K::kLayer);
      report.scalar("reopt.frag_mean",
                    ticks == 0 ? 0.0 : frag_sum / static_cast<double>(ticks),
                    "score", K::kLayer);
      SimTime roll_hit{};
      for (const core::Connection* c : conns) roll_hit += c->roll_hit_total;
      report.scalar("reopt.roll_hit_s_total", to_seconds(roll_hit), "s",
                    K::kLayer);
      const auto durations = spans.durations_us();
      report_span_samples(durations, "reopt.analyze", "reopt.analyze_ms", "ms",
                          1e-3, report);
      report_span_samples(durations, "reopt.campaign", "reopt.campaign_ms",
                          "ms", 1e-3, report);
    }
    spans.write_chrome_trace("trace_e2e_" + options.workload + ".json");
  }
  return report;
}

}  // namespace e2e
