#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "topology/builders.hpp"

namespace e2e {

namespace {

const char* kind_name(Report::Kind kind) {
  switch (kind) {
    case Report::Kind::kSim:
      return "sim";
    case Report::Kind::kWall:
      return "wall";
    case Report::Kind::kLayer:
      return "layer";
  }
  return "?";
}

/// JSON number with every digit kept; Python's json reads Infinity/NaN.
std::string num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Error messages carry device and connection ids; fold the digits so one
/// failure mode counts as one entry.
std::string normalize(const std::string& message) {
  std::string out;
  for (const char c : message) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (out.empty() || out.back() != 'N') out += 'N';
    } else {
      out += c;
    }
  }
  return out;
}

double counter(const telemetry::MetricsRegistry& m, const char* name) {
  const telemetry::Counter* c = m.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

/// Quantile over the union of same-bucket histograms, interpolated the
/// way telemetry::Histogram::quantile does it.
double merged_quantile(const std::vector<const telemetry::Histogram*>& hs,
                       double q) {
  if (hs.empty()) return 0;
  const std::vector<double>& bounds = hs.front()->bounds();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  std::uint64_t total = 0;
  for (const telemetry::Histogram* h : hs) {
    const std::vector<std::uint64_t> b = h->buckets();
    for (std::size_t i = 0; i < b.size() && i < counts.size(); ++i) {
      counts[i] += b[i];
      total += b[i];
    }
  }
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + static_cast<double>(counts[i]) >= rank) {
      if (i == bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = (rank - seen) / static_cast<double>(counts[i]);
      return lo + frac * (bounds[i] - lo);
    }
    seen += static_cast<double>(counts[i]);
  }
  return bounds.back();
}

bool is_command_actor(const std::string& actor) {
  return actor == "ems" ||
         (actor.size() > 4 && actor.compare(actor.size() - 4, 4, "-ems") == 0);
}

}  // namespace

// --- Report -----------------------------------------------------------------

void Report::scalar(const std::string& name, double value,
                    const std::string& unit, Kind kind) {
  scalars_[name] = Scalar{value, unit, kind};
}

void Report::samples(const std::string& name, std::vector<double> values,
                     const std::string& unit, Kind kind,
                     std::vector<std::pair<std::string, double>> quantiles,
                     const std::string& n_name) {
  samples_[name] =
      Samples{std::move(values), unit, kind, std::move(quantiles), n_name};
}

void Report::text(const std::string& key, const std::string& value) {
  texts_[key] = value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_[name] = Check{ok, detail};
}

void Report::error(const std::string& message) {
  ++errors_[normalize(message)];
}

bool Report::ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& kv) { return kv.second.ok; });
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"scalars\":{";
  const char* sep = "";
  for (const auto& [name, s] : scalars_) {
    os << sep << quote(name) << ":{\"value\":" << num(s.value)
       << ",\"unit\":" << quote(s.unit) << ",\"kind\":\"" << kind_name(s.kind)
       << "\"}";
    sep = ",";
  }
  os << "},\"samples\":{";
  sep = "";
  for (const auto& [name, s] : samples_) {
    os << sep << quote(name) << ":{\"unit\":" << quote(s.unit)
       << ",\"kind\":\"" << kind_name(s.kind) << "\",\"n_name\":"
       << quote(s.n_name) << ",\"quantiles\":{";
    const char* qsep = "";
    for (const auto& [metric, q] : s.quantiles) {
      os << qsep << quote(metric) << ":" << num(q);
      qsep = ",";
    }
    os << "},\"values\":[";
    qsep = "";
    for (const double v : s.values) {
      os << qsep << num(v);
      qsep = ",";
    }
    os << "]}";
    sep = ",";
  }
  os << "},\"texts\":{";
  sep = "";
  for (const auto& [key, value] : texts_) {
    os << sep << quote(key) << ":" << quote(value);
    sep = ",";
  }
  os << "},\"checks\":{";
  sep = "";
  for (const auto& [name, c] : checks_) {
    os << sep << quote(name) << ":{\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << quote(c.detail) << "}";
    sep = ",";
  }
  os << "},\"errors\":{";
  sep = "";
  for (const auto& [message, n] : errors_) {
    os << sep << quote(message) << ":" << n;
    sep = ",";
  }
  os << "}}";
  return os.str();
}

// --- Spans ------------------------------------------------------------------

Spans::Spans(bool on) : on_(on), t0_(WallClock::now()) {}

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t op)
    : spans_(spans), index_(spans.on_ ? spans.open(name, op) : 0) {}

Spans::Scope::~Scope() {
  if (index_ != 0) spans_.close(index_);
}

std::size_t Spans::open(const char* name, std::uint64_t op) {
  const std::size_t parent = stack_.empty() ? 0 : stack_.back();
  if (op == 0 && parent != 0) op = spans_[parent - 1].op;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       WallClock::now() - t0_)
                       .count();
  spans_.push_back(Span{name, now, now, parent, op});
  stack_.push_back(spans_.size());
  return spans_.size();
}

void Spans::close(std::size_t index) {
  spans_[index - 1].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                           t0_)
          .count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, std::vector<double>> Spans::durations_us() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_)
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

void Spans::write_chrome_trace(const std::string& path) const {
  constexpr std::size_t kMaxSpans = 200000;
  const std::size_t stride =
      std::max<std::size_t>(1, (spans_.size() + kMaxSpans - 1) / kMaxSpans);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"griphon_e2e harness (wall clock)\"}},\n"
      << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"harness\"}}";
  std::vector<std::size_t> open;  // indices + 1, innermost last
  const auto end_event = [&](std::size_t index) {
    const Span& s = spans_[index - 1];
    out << ",\n{\"name\":" << quote(s.name)
        << ",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":" << s.end_ns / 1000
        << "}";
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op != 0 && (s.op - 1) % stride != 0) continue;
    while (!open.empty() && open.back() != s.parent) {
      end_event(open.back());
      open.pop_back();
    }
    out << ",\n{\"name\":" << quote(s.name)
        << ",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ns / 1000
        << ",\"args\":{\"op\":" << s.op << "}}";
    open.push_back(i + 1);
  }
  while (!open.empty()) {
    end_event(open.back());
    open.pop_back();
  }
  out << "\n]}\n";
}

// --- Probes -----------------------------------------------------------------

Probes::Probes(Spans& spans, core::NetworkModel& model,
               core::GriphonController& controller)
    : spans_(spans),
      model_(model),
      controller_(controller),
      warm_(&model, &controller.inventory(), core::RwaEngine::Params{}) {}

void Probes::at_input(std::uint64_t op) {
  {
    Spans::Scope s(spans_, "core.inventory.snapshot", op);
    (void)controller_.inventory().snapshot();
  }
  pending_max_ = std::max(pending_max_, model_.engine().pending());
  std::size_t queued = 0;
  for (const ems::EmsServer* server : model_.ems_servers())
    queued += server->queue_depth();
  ems_queue_max_ = std::max(ems_queue_max_, queued);
}

Probes::RwaCounts Probes::rwa_counts() const {
  const telemetry::Telemetry* t = model_.telemetry();
  if (t == nullptr) return {};
  const auto& m = t->metrics();
  return {counter(m, "griphon_rwa_route_cache_hits_total"),
          counter(m, "griphon_rwa_route_cache_misses_total"),
          counter(m, "griphon_rwa_plans_total"),
          counter(m, "griphon_rwa_plans_failed_total")};
}

void Probes::plan_on(const core::RwaEngine& engine, const char* span,
                     std::uint64_t op, NodeId src, NodeId dst,
                     const core::Exclusions& exclude) {
  const RwaCounts before = rwa_counts();
  {
    Spans::Scope s(spans_, span, op);
    (void)engine.plan(src, dst, rates::k10G, exclude);
  }
  const RwaCounts after = rwa_counts();
  shadow_.hits += after.hits - before.hits;
  shadow_.misses += after.misses - before.misses;
  shadow_.plans += after.plans - before.plans;
  shadow_.failed += after.failed - before.failed;
}

void Probes::plans(std::uint64_t op, NodeId src, NodeId dst,
                   const core::Exclusions& exclude) {
  plan_on(warm_, "core.rwa.plan", op, src, dst, exclude);
  cold_plan(op, src, dst, exclude);
}

void Probes::cold_plan(std::uint64_t op, NodeId src, NodeId dst,
                       const core::Exclusions& exclude) {
  const core::RwaEngine cold(&model_, &controller_.inventory(),
                             core::RwaEngine::Params{});
  plan_on(cold, "core.rwa.cold_plan", op, src, dst, exclude);
}

void Probes::provisioned(std::uint64_t op,
                         const core::CustomerPortal& portal) {
  Spans::Scope s(spans_, "core.portal.provisioned", op);
  (void)portal.provisioned();
}

// --- plant ------------------------------------------------------------------

topology::Graph backbone() {
  Rng rng(4242);
  return topology::random_mesh(50, 3.2, rng);
}

std::vector<NodeId> pick_nodes(const topology::Graph& graph, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> nodes;
  for (const auto& node : graph.nodes()) nodes.push_back(node.id);
  for (std::size_t i = 0; i < count && i + 1 < nodes.size(); ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(nodes.size()) - 1));
    std::swap(nodes[i], nodes[j]);
  }
  nodes.resize(std::min(count, nodes.size()));
  return nodes;
}

// --- end-of-run checks and metrics ------------------------------------------

void report_digest(const core::GriphonController& controller,
                   Report& report) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : controller.device_state_digest()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  report.text("digest", buf);
}

std::vector<const core::Connection*> connection_records(
    const core::GriphonController& controller, Report& report) {
  const auto& st = controller.stats();
  const std::size_t expected = st.setups_ok + st.setups_failed;
  std::vector<const core::Connection*> out;
  // Ids consumed by requests refused before a record was made leave gaps;
  // the limit only keeps a broken count from scanning forever.
  const std::uint64_t limit = 4 * expected + 100000;
  for (std::uint64_t i = 0; out.size() < expected && i < limit; ++i)
    if (const core::Connection* c =
            controller.find_connection(ConnectionId{i}))
      out.push_back(c);
  report.check("connection_records_found", out.size() == expected,
               std::to_string(out.size()) + " of " + std::to_string(expected));
  return out;
}

void report_connections(const std::vector<const core::Connection*>& records,
                        Report& report) {
  std::vector<double> latency;
  std::size_t transitional = 0;
  for (const core::Connection* c : records) {
    switch (c->state) {
      case core::ConnectionState::kPending:
      case core::ConnectionState::kSettingUp:
      case core::ConnectionState::kRestoring:
      case core::ConnectionState::kRolling:
      case core::ConnectionState::kTearingDown:
        ++transitional;
        break;
      default:
        break;
    }
    if (c->state != core::ConnectionState::kSetupFailed &&
        c->active_at != SimTime{})
      latency.push_back(to_seconds(c->setup_duration));
  }
  report.check("no_transitional_state_after_drain", transitional == 0,
               std::to_string(transitional) + " connection(s) mid-operation");
  report.samples("setup_latency", std::move(latency), "s",
                 Report::Kind::kSim,
                 {{"setup_latency_p50_s", 0.5}, {"setup_latency_p99_s", 0.99}},
                 "setup_latency_n");
}

void resync_until_clean(sim::Engine& engine,
                        core::GriphonController& controller, Spans& spans,
                        Report& report) {
  const auto t0 = WallClock::now();
  bool clean = false;
  std::size_t leaks = 0;
  std::size_t drift = 0;
  int passes = 0;
  while (!clean && passes < 4) {
    ++passes;
    bool done = false;
    {
      Spans::Scope s(spans, "core.controller.resync", 0);
      controller.resync(
          [&](Result<core::GriphonController::ResyncReport> r) {
            if (!r.ok()) return;
            done = true;
            leaks = r.value().total_leaks();
            drift = r.value().drifted_connections;
          });
      engine.run();
    }
    clean = done && leaks == 0 && drift == 0;
  }
  report.check("resync_clean_within_4_passes", clean,
               std::to_string(leaks) + " leak(s), " + std::to_string(drift) +
                   " drifted after " + std::to_string(passes) + " pass(es)");
  if (spans.on())
    report.scalar("core.controller.resync_ms", seconds_since(t0) * 1e3, "ms",
                  Report::Kind::kLayer);
}

void report_wall(double setup_s, double timed_s, std::size_t records,
                 Report& report) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.scalar("setup_s", setup_s, "s", Report::Kind::kWall);
  report.scalar("timed_s", timed_s, "s", Report::Kind::kWall);
  report.scalar("ops_per_s", static_cast<double>(records) / timed_s, "ops/s",
                Report::Kind::kWall);
  report.scalar("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                "MB", Report::Kind::kWall);
  report.scalar("records", static_cast<double>(records), "count",
                Report::Kind::kSim);
}

void report_span_samples(
    const std::map<std::string, std::vector<double>>& durations_us,
    const char* span, const std::string& metric, const char* unit,
    double scale, Report& report) {
  std::vector<double> v;
  if (const auto it = durations_us.find(span); it != durations_us.end())
    v = it->second;
  for (double& x : v) x *= scale;
  report.samples(metric, std::move(v), unit, Report::Kind::kLayer,
                 {{metric + "_p50", 0.5}, {metric + "_p99", 0.99}},
                 metric + "_n");
}

void report_layers(const Spans& spans, const Probes& probes,
                   const sim::Engine& engine, core::NetworkModel& model,
                   const core::GriphonController& controller,
                   const telemetry::Telemetry& sink, std::size_t records,
                   Report& report) {
  using K = Report::Kind;
  const double ops = static_cast<double>(records);

  // Harness spans: one sample set per layer call.
  const auto durations = spans.durations_us();
  report_span_samples(durations, "sim.slice", "sim.slice_us", "us", 1.0,
                      report);
  report_span_samples(durations, "core.portal.connect",
                      "core.controller.connect_us", "us", 1.0, report);
  report_span_samples(durations, "core.portal.disconnect",
                      "core.controller.release_us", "us", 1.0, report);
  report_span_samples(durations, "core.portal.provisioned",
                      "core.portal.provisioned_us", "us", 1.0, report);
  report_span_samples(durations, "core.rwa.plan", "core.rwa.plan_us", "us",
                      1.0, report);
  report_span_samples(durations, "core.rwa.cold_plan", "core.rwa.cold_plan_us",
                      "us", 1.0, report);
  report_span_samples(durations, "core.inventory.snapshot",
                      "core.inventory.snapshot_us", "us", 1.0, report);

  // Engine and controller counters.
  report.scalar("sim.events_per_op", static_cast<double>(engine.fired()) / ops,
                "count", K::kLayer);
  report.scalar("sim.pending_max", static_cast<double>(probes.pending_max()),
                "count", K::kLayer);
  const auto& st = controller.stats();
  report.scalar("core.controller.commands_per_op",
                static_cast<double>(st.commands_issued) / ops, "count",
                K::kLayer);
  report.scalar("core.controller.commands_retried",
                static_cast<double>(st.commands_retried), "count", K::kLayer);
  std::size_t executed = 0;
  for (const ems::EmsServer* server : model.ems_servers())
    executed += server->commands_executed();
  report.scalar("ems.commands_per_op", static_cast<double>(executed) / ops,
                "count", K::kLayer);
  report.scalar("ems.queue_depth_max",
                static_cast<double>(probes.ems_queue_max()), "count",
                K::kLayer);
  report.scalar("core.failure.storms",
                static_cast<double>(controller.failure_manager().storms_seen()),
                "count", K::kLayer);
  report.scalar("core.restore.attempts_per_success",
                st.restorations_ok == 0
                    ? 0.0
                    : static_cast<double>(st.restorations_ok +
                                          st.restorations_failed) /
                          static_cast<double>(st.restorations_ok),
                "ratio", K::kLayer);
  report.scalar("core.restore.non_diverse",
                static_cast<double>(st.restorations_non_diverse), "count",
                K::kLayer);
  report.scalar("otn.carriers_groomed",
                static_cast<double>(controller.carriers_groomed()), "count",
                K::kLayer);

  // Route cache and planning, with the shadow probes' increments removed.
  const auto& m = sink.metrics();
  const Probes::RwaCounts& shadow = probes.shadow();
  const double hits =
      counter(m, "griphon_rwa_route_cache_hits_total") - shadow.hits;
  const double misses =
      counter(m, "griphon_rwa_route_cache_misses_total") - shadow.misses;
  const double plans = counter(m, "griphon_rwa_plans_total") - shadow.plans;
  const double failed =
      counter(m, "griphon_rwa_plans_failed_total") - shadow.failed;
  report.scalar("core.rwa.cache_hit_pct",
                hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0, "%",
                K::kLayer);
  report.scalar("core.rwa.plans_failed_pct",
                plans > 0 ? 100.0 * failed / plans : 0.0, "%", K::kLayer);

  // EMS queue waits from the servers' own histograms.
  std::vector<const telemetry::Histogram*> waits;
  for (const ems::EmsServer* server : model.ems_servers()) {
    std::string domain = server->name();
    if (domain.size() > 4 && domain.compare(domain.size() - 4, 4, "-ems") == 0)
      domain.resize(domain.size() - 4);
    if (const telemetry::Histogram* h = m.find_histogram(
            "griphon_ems_" + domain + "_queue_wait_seconds")) {
      waits.push_back(h);
      if (domain == "roadm")
        report.scalar("ems.roadm.queue_wait_s_p95", merged_quantile({h}, 0.95),
                      "s", K::kLayer);
    }
  }
  report.scalar("ems.queue_wait_s_p95", merged_quantile(waits, 0.95), "s",
                K::kLayer);

  // Sim-clock spans the program records itself.
  std::map<std::string, std::vector<double>> sim_spans;
  std::vector<double> commands;
  for (const telemetry::Span& s : sink.spans().spans()) {
    if (!s.done) continue;
    const double d = to_seconds(s.duration());
    if (is_command_actor(s.actor))
      commands.push_back(d);
    else
      sim_spans[s.name].push_back(d);
  }
  report.samples("ems.command_s", std::move(commands), "s", K::kLayer,
                 {{"ems.command_s_p50", 0.5}, {"ems.command_s_p95", 0.95}},
                 "ems.command_s_n");
  const auto sim = [&](const char* span, const std::string& metric,
                       std::vector<std::pair<std::string, double>> qs) {
    for (auto& [name, q] : qs) name = metric + "_" + name;
    report.samples(metric, std::move(sim_spans[span]), "s", K::kLayer,
                   std::move(qs), metric + "_n");
  };
  sim("path_computation", "core.setup.path_computation_s", {{"p50", 0.5}});
  sim("detect", "core.failure.detect_s", {{"p50", 0.5}});
  sim("localize", "core.failure.localize_s", {{"p95", 0.95}});
  sim("replan", "core.restore.replan_s", {{"p50", 0.5}});
  sim("reprovision", "core.restore.reprovision_s", {{"p50", 0.5}, {"p95", 0.95}});
  report.scalar("telemetry.spans",
                static_cast<double>(sink.spans().spans().size()), "count",
                K::kLayer);
}

bool is_blocking(const Error& error) {
  return error.code() == ErrorCode::kResourceExhausted ||
         error.code() == ErrorCode::kUnreachable;
}

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

}  // namespace e2e
