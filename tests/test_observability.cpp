// Observability v2 (DESIGN.md §14): Chrome-trace export, gauge sampler,
// event log, and SLO alerting with hysteresis.
//
// The export tests verify the Chrome Trace Event invariants that
// tools/validate_trace.py enforces on CI artifacts — matched B/E pairs
// per lane, monotonic timestamps, incomplete-span flagging — plus
// byte-determinism: two identical seeded runs must export identical
// bytes. The SLO regression test drives a chaos-induced restoration-
// budget violation through alert fire and clear.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "chaos/fault_injector.hpp"
#include "chaos/fault_plan.hpp"
#include "core/observability.hpp"
#include "core/scenario.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

namespace griphon::telemetry {
namespace {

constexpr auto npos = std::string::npos;

// Count occurrences of a literal substring.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

// --- TimeSeries -------------------------------------------------------------

TEST(TimeSeries, RollupsSurviveRingEviction) {
  TimeSeries ts(4);
  for (int i = 0; i < 10; ++i) ts.push(seconds(i), i);
  EXPECT_EQ(ts.points().size(), 4u);
  EXPECT_EQ(ts.dropped_count(), 6u);
  const auto r = ts.rollup();
  EXPECT_EQ(r.count, 10u);       // every sample ever pushed
  EXPECT_DOUBLE_EQ(r.min, 0.0);  // including evicted ones
  EXPECT_DOUBLE_EQ(r.max, 9.0);
  EXPECT_DOUBLE_EQ(r.mean, 4.5);
  EXPECT_DOUBLE_EQ(r.last, 9.0);
}

TEST(TimeSeries, WindowFiltersRetainedPoints) {
  TimeSeries ts(16);
  for (int i = 0; i < 8; ++i) ts.push(seconds(i), i * 10);
  const auto w = ts.window(seconds(2), seconds(4));
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.front(), 20.0);
  EXPECT_DOUBLE_EQ(w.back(), 40.0);
}

TEST(TimeSeries, SparklineScalesToRetainedRange) {
  TimeSeries ts(8);
  for (int i = 0; i < 8; ++i) ts.push(seconds(i), i);
  const std::string s = ts.spark(8);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_NE(s.front(), s.back());  // ramp, not flat
  TimeSeries flat(8);
  flat.push(seconds(0), 5);
  flat.push(seconds(1), 5);
  const std::string f = flat.spark(8);
  EXPECT_EQ(f[0], f[1]);  // flat series render uniformly
}

// --- EventLog ---------------------------------------------------------------

TEST(EventLog, RingBoundsAndCountsDrops) {
  EventLog log(3);
  for (int i = 0; i < 7; ++i)
    log.log(seconds(i), Severity::kInfo, "lifecycle", "controller",
            "e" + std::to_string(i), static_cast<CorrelationTag>(i));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped_count(), 4u);
  EXPECT_EQ(log.events().front().message, "e4");  // newest retained
  EXPECT_EQ(log.events().back().message, "e6");
  EXPECT_NE(log.to_json().find("\"dropped\":4"), npos);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped_count(), 0u);
}

// The event log is the simulator's single trace stream; its JSON export
// escapes messages per RFC 8259: quotes, newlines and raw control
// characters never reach the JSON unescaped.
TEST(Trace, JsonEscapesControlCharacters) {
  EventLog log;
  log.log(seconds(1), Severity::kInfo, "plant", "plant",
          std::string("cut \"I-IV\"\nbell\x07tab\tend"));
  const std::string json = log.to_json();
  EXPECT_NE(json.find("\\\"I-IV\\\""), npos);
  EXPECT_NE(json.find("\\n"), npos);
  EXPECT_NE(json.find("\\u0007"), npos);
  EXPECT_NE(json.find("\\t"), npos);
  for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(EventLog, SeverityAndCategoryFilters) {
  EventLog log;
  log.log(seconds(1), Severity::kDebug, "lifecycle", "controller", "a");
  log.log(seconds(2), Severity::kWarn, "breaker", "roadm-ems", "b");
  log.log(seconds(3), Severity::kError, "slo", "slo-monitor", "c");
  EXPECT_EQ(log.at_least(Severity::kWarn).size(), 2u);
  EXPECT_EQ(log.at_least(Severity::kError).size(), 1u);
  ASSERT_EQ(log.for_category("breaker").size(), 1u);
  EXPECT_EQ(log.for_category("breaker")[0]->message, "b");
}

TEST(EventLog, FullStackConnectionStoryIsLoggedOnceInOrder) {
  // connect -> fiber cut -> restoration -> repair -> release on the paper
  // testbed: the event log alone tells the whole story, every transition
  // once, with the connection's events carrying its correlation tag.
  core::TestbedScenario s(71);
  Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kRestorable,
                    [&](Result<ConnectionId> r) {
                      if (r.ok()) id = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(id.has_value());
  s.model->fail_link(s.topo.i_iv);
  s.engine.run();
  ASSERT_EQ(s.controller->connection(*id).restorations, 1);
  s.model->repair_link(s.topo.i_iv);
  s.engine.run();
  std::optional<Status> released;
  s.portal->disconnect(*id, [&](Status st) { released = st; });
  s.engine.run();
  ASSERT_TRUE(released.has_value() && released->ok());
  s.model->attach_telemetry(nullptr);

  const CorrelationTag tag = core::telemetry_tag(*id);
  const std::string name = "connection " + std::to_string(id->value());
  const std::string link = s.model->graph().link(s.topo.i_iv).name;
  std::vector<std::string> story;
  for (const Event& e : tel.events().events()) {
    if (e.category == "plant") {
      EXPECT_EQ(e.tag, 0u) << e.message;
      story.push_back("plant: " + e.message);
    } else if (e.tag == tag) {
      story.push_back(e.category + ": " + e.message);
    } else {
      EXPECT_EQ(e.message.rfind(name + " ", 0), npos)
          << "untagged event about the connection: " << e.message;
    }
  }
  const std::vector<std::string> expected = {
      "lifecycle: " + name + " requested",
      "lifecycle: " + name + " active",
      "plant: fiber cut on " + link,
      "lifecycle: " + name + " failed",
      "restoration: " + name + " restoration started",
      "lifecycle: " + name + " recovered",
      "lifecycle: " + name + " restored",
      "plant: fiber repaired on " + link,
      "lifecycle: " + name + " released",
  };
  ASSERT_EQ(story.size(), expected.size()) << [&] {
    std::string all;
    for (const std::string& line : story) all += line + "\n";
    return all;
  }();
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(story[i].rfind(expected[i], 0), 0u)
        << "event " << i << ": " << story[i];
}

TEST(EventLog, TelemetryFacadeStampsSimTime) {
  sim::Engine engine;
  Telemetry tel(&engine);
  engine.schedule(seconds(42), [&] {
    tel.event(Severity::kWarn, "fault", "chaos", "ot laser died", 7);
  });
  engine.run();
  ASSERT_EQ(tel.events().size(), 1u);
  EXPECT_EQ(tel.events().events().front().when, seconds(42));
  EXPECT_EQ(tel.events().events().front().tag, 7u);
}

// --- GaugeSampler -----------------------------------------------------------

TEST(GaugeSampler, SamplesOnSimClockCadence) {
  sim::Engine engine;
  GaugeSampler sampler(&engine, nullptr, 64);
  double level = 1.0;
  sampler.add_probe("test_level", "count", [&] { return level; });
  sampler.start(seconds(10));  // samples immediately, then every 10 s
  engine.schedule(seconds(25), [&] { level = 5.0; });
  engine.run_until(seconds(45));
  sampler.stop();
  // Ticks at t = 0, 10, 20, 30, 40.
  EXPECT_EQ(sampler.tick_count(), 5u);
  const TimeSeries* ts = sampler.series("test_level");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->points().size(), 5u);
  EXPECT_DOUBLE_EQ(ts->points()[2].value, 1.0);  // t=20, before the bump
  EXPECT_DOUBLE_EQ(ts->points()[3].value, 5.0);  // t=30, after
  // Stopped: no pending event keeps the engine alive.
  engine.run();
  EXPECT_EQ(sampler.tick_count(), 5u);
}

TEST(GaugeSampler, NonFiniteProbeValuesClampToZero) {
  sim::Engine engine;
  GaugeSampler sampler(&engine);
  sampler.add_probe("bad_probe", "ratio",
                    [] { return std::nan(""); });
  sampler.sample_now();
  ASSERT_EQ(sampler.series("bad_probe")->points().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.series("bad_probe")->points()[0].value, 0.0);
}

TEST(GaugeSampler, CsvIsWideWithAlignedRows) {
  sim::Engine engine;
  GaugeSampler sampler(&engine);
  sampler.add_probe("a_gauge", "count", [] { return 1.0; });
  sampler.add_probe("b_gauge", "gbps", [] { return 2.5; });
  sampler.sample_now();
  engine.schedule(seconds(5), [&] { sampler.sample_now(); });
  engine.run();
  const std::string csv = sampler.to_csv();
  EXPECT_NE(csv.find("t_seconds,a_gauge,b_gauge"), npos);
  EXPECT_EQ(count_of(csv, "\n"), 3u);  // header + 2 rows
  EXPECT_NE(csv.find("5.000000,1"), npos);
}

TEST(GaugeSampler, RegistersSelfMetrics) {
  sim::Engine engine;
  Telemetry tel(&engine);
  GaugeSampler sampler(&engine, &tel);
  sampler.add_probe("x_probe", "count", [] { return 0.0; });
  sampler.start(seconds(1));
  engine.run_until(seconds(3));
  sampler.stop();
  EXPECT_NE(tel.metrics().find_gauge("griphon_sampler_probes_registered"),
            nullptr);
  const auto* ticks =
      tel.metrics().find_counter("griphon_sampler_ticks_total");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->value(), 3.0);
  EXPECT_TRUE(tel.metrics().invalid_names().empty());
}

// --- SpanTracer edge cases (satellite: export-adjacent semantics) -----------

TEST(SpanTracer, RetroactiveRecordMayOverlapOpenSpan) {
  SpanTracer t;
  const SpanId root = t.start("restoration", "controller", 3, 0, seconds(10));
  // Retroactive child recorded while the root is still open, overlapping
  // the root's live window (detect = cut -> first alarm, known only in
  // hindsight).
  const SpanId detect = t.record("detect", "failure-manager", 3, root,
                                 seconds(8), seconds(12), true, "link 2");
  const Span* d = t.find(detect);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->done);
  EXPECT_LT(d->start, t.find(root)->start);  // starts before its parent
  EXPECT_EQ(t.open_count(), 1u);
  t.end(root, seconds(40));
  EXPECT_EQ(t.open_count(), 0u);
  // The exporter gives the early-starting child its own lane rather than
  // breaking B/E nesting under the root.
  const std::string json =
      TraceExporter().to_json(t, seconds(40), nullptr);
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 2u);
  EXPECT_EQ(json.find("incomplete"), npos);
}

TEST(SpanTracer, OpenAtExportSpansAreFlaggedIncomplete) {
  SpanTracer t;
  t.start("connection_setup", "controller", 1, 0, seconds(0));
  const std::string json = TraceExporter().to_json(t, seconds(30), nullptr);
  // Closed at the export instant, flagged, still a matched pair.
  EXPECT_NE(json.find("\"incomplete\":true"), npos);
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\":\"E\""), 1u);
  EXPECT_NE(json.find("\"ts\":30000000"), npos);  // E at export_now
}

// --- TraceExporter ----------------------------------------------------------

// One instrumented setup; returns the exported trace JSON.
std::string traced_setup(std::uint64_t seed) {
  core::TestbedScenario s(seed);
  Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) {
                      if (r.ok()) id = r.value();
                    });
  s.engine.run();
  EXPECT_TRUE(id.has_value());
  const std::string json = TraceExporter().to_json(tel);
  s.model->attach_telemetry(nullptr);
  return json;
}

TEST(TraceExporter, EmitsBalancedPairsWithCorrelationArgs) {
  const std::string json = traced_setup(99);
  EXPECT_NE(json.find("{\"traceEvents\":["), npos);
  EXPECT_EQ(count_of(json, "\"ph\":\"B\""), count_of(json, "\"ph\":\"E\""));
  EXPECT_GT(count_of(json, "\"ph\":\"B\""), 4u);  // root + per-command spans
  EXPECT_NE(json.find("\"name\":\"connection_setup\""), npos);
  EXPECT_NE(json.find("\"name\":\"path_computation\""), npos);
  // Correlation: tag and derived connection id ride in args.
  EXPECT_NE(json.find("\"tag\":1"), npos);
  EXPECT_NE(json.find("\"connection\":0"), npos);
  // Metadata names the actor processes.
  EXPECT_NE(json.find("\"process_name\""), npos);
  EXPECT_NE(json.find("\"controller\""), npos);
  // A finished setup exports no incomplete spans.
  EXPECT_EQ(json.find("incomplete"), npos);
}

TEST(TraceExporter, ExportIsByteDeterministicAcrossRuns) {
  const std::string a = traced_setup(4242);
  const std::string b = traced_setup(4242);
  EXPECT_EQ(a, b);  // byte-identical, not just equivalent
  const std::string c = traced_setup(4243);
  EXPECT_EQ(count_of(c, "\"ph\":\"B\""), count_of(c, "\"ph\":\"E\""));
}

TEST(TraceExporter, EventLogEntriesBecomeInstantEvents) {
  sim::Engine engine;
  Telemetry tel(&engine);
  tel.spans().record("connection_setup", "controller", 1, 0, seconds(0),
                     seconds(20));
  engine.schedule(seconds(5), [&] {
    tel.event(Severity::kWarn, "fault", "chaos", "injected nack", 1);
  });
  engine.run();
  const std::string json = TraceExporter().to_json(tel);
  EXPECT_EQ(count_of(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("\"s\":\"p\""), npos);  // process scope
  EXPECT_NE(json.find("injected nack"), npos);
  // Disabled via options: instants disappear, spans stay.
  TraceExporter::Options opt;
  opt.include_instants = false;
  const std::string bare = TraceExporter(opt).to_json(tel);
  EXPECT_EQ(count_of(bare, "\"ph\":\"i\""), 0u);
  EXPECT_EQ(count_of(bare, "\"ph\":\"B\""), 1u);
}

// --- SloMonitor -------------------------------------------------------------

TEST(SloMonitor, HysteresisGatesFireAndClear) {
  sim::Engine engine;
  Telemetry tel(&engine);
  SloMonitor slo(&engine, &tel);
  double value = 0.0;
  Objective obj;
  obj.name = "test_objective";
  obj.description = "value stays under 10";
  obj.value = [&] { return value; };
  obj.bound = 10.0;
  obj.trip_after = 3;
  obj.clear_after = 2;
  slo.add_objective(obj);

  // Two violating evaluations: streak building, no alert yet.
  value = 50.0;
  EXPECT_EQ(slo.evaluate_now(), 0u);
  EXPECT_EQ(slo.evaluate_now(), 0u);
  EXPECT_FALSE(slo.alerting("test_objective"));
  // A healthy evaluation resets the violation streak.
  value = 1.0;
  EXPECT_EQ(slo.evaluate_now(), 0u);
  value = 50.0;
  EXPECT_EQ(slo.evaluate_now(), 0u);
  EXPECT_EQ(slo.evaluate_now(), 0u);
  // Third consecutive violation: fires.
  EXPECT_EQ(slo.evaluate_now(), 1u);
  EXPECT_TRUE(slo.alerting("test_objective"));
  // One healthy evaluation is not enough to clear...
  value = 1.0;
  EXPECT_EQ(slo.evaluate_now(), 1u);
  // ...the second consecutive one clears.
  EXPECT_EQ(slo.evaluate_now(), 0u);
  EXPECT_FALSE(slo.alerting("test_objective"));

  // Fire + clear left an audit trail: slo events and metrics.
  EXPECT_EQ(tel.events().for_category("slo").size(), 2u);
  const auto* fired =
      tel.metrics().find_counter("griphon_slo_alerts_fired_total",
                                 {{"objective", "test_objective"}});
  ASSERT_NE(fired, nullptr);
  EXPECT_DOUBLE_EQ(fired->value(), 1.0);
  const auto* active =
      tel.metrics().find_gauge("griphon_slo_alert_active",
                               {{"objective", "test_objective"}});
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value(), 0.0);
}

TEST(SloMonitor, NanMeansNoDataAndFreezesStreaks) {
  sim::Engine engine;
  SloMonitor slo(&engine);
  double value = 100.0;
  bool have_data = true;
  Objective obj;
  obj.name = "nan_objective";
  obj.value = [&] { return have_data ? value : std::nan(""); };
  obj.bound = 10.0;
  obj.trip_after = 2;
  slo.add_objective(obj);
  slo.evaluate_now();  // violation streak = 1
  have_data = false;
  for (int i = 0; i < 5; ++i) slo.evaluate_now();  // no-data: frozen
  EXPECT_FALSE(slo.alerting("nan_objective"));
  have_data = true;
  EXPECT_EQ(slo.evaluate_now(), 1u);  // streak resumes at 2 -> fires
}

TEST(SloMonitor, PeriodicEvaluationRidesTheSimClock) {
  sim::Engine engine;
  SloMonitor slo(&engine);
  double value = 100.0;
  Objective obj;
  obj.name = "periodic_objective";
  obj.value = [&] { return value; };
  obj.bound = 10.0;
  obj.trip_after = 3;
  slo.add_objective(obj);
  slo.start(seconds(10));
  engine.run_until(seconds(25));  // evaluations at 10, 20
  EXPECT_FALSE(slo.alerting("periodic_objective"));
  engine.run_until(seconds(35));  // third at 30: fires
  EXPECT_TRUE(slo.alerting("periodic_objective"));
  slo.stop();
  engine.run();  // no pending event survives stop()
  EXPECT_EQ(slo.active_alerts(), 1u);
}

// --- SLO regression: chaos-induced restoration-budget violation -------------

// A restorable connection's first link is cut under an armed fault plan;
// the injected EMS faults stretch restoration past the budget and the
// restoration-time SLO fires. After heal/disarm, repeated chaos-free
// fail/repair cycles pull the cumulative p95 back under budget and the
// alert clears through the same hysteresis gate.
TEST(SloRegression, RestorationBudgetViolationFiresAndClears) {
  core::TestbedScenario s(31337);
  Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  chaos::FaultInjector injector(s.model.get(),
                                chaos::FaultPlan::combined().scaled(2.0),
                                991);

  SloMonitor slo(&s.engine, &tel);
  constexpr double kBudgetSeconds = 45.0;
  Objective obj = restoration_time_objective(tel.metrics(), kBudgetSeconds);
  obj.trip_after = 2;
  obj.clear_after = 2;
  slo.add_objective(obj);

  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kRestorable,
                    [&](Result<ConnectionId> r) {
                      if (r.ok()) id = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(id.has_value());
  const LinkId victim = s.controller->connection(*id).plan.path.links.front();

  // No restoration data yet: NaN, no alert however often we evaluate.
  EXPECT_EQ(slo.evaluate_now(), 0u);
  EXPECT_EQ(slo.evaluate_now(), 0u);

  // Chaos-stretched restoration: cut the first link with faults armed.
  injector.arm();
  s.model->fail_link(victim);
  s.engine.run_until(s.engine.now() + minutes(30));
  ASSERT_EQ(s.controller->connection(*id).state,
            core::ConnectionState::kActive);
  injector.disarm();
  injector.heal_all();
  s.model->repair_link(victim);
  s.engine.run();

  const auto* h =
      tel.metrics().find_histogram("griphon_controller_restore_seconds");
  ASSERT_NE(h, nullptr);
  ASSERT_GT(h->quantile(0.95), kBudgetSeconds)
      << "chaos did not stretch restoration past the budget; pick a "
         "hotter plan or seed";

  EXPECT_EQ(slo.evaluate_now(), 0u);  // violation 1 of trip_after=2
  EXPECT_EQ(slo.evaluate_now(), 1u);  // fires
  EXPECT_TRUE(slo.alerting(obj.name));
  ASSERT_EQ(tel.events().for_category("slo").size(), 1u);
  EXPECT_EQ(tel.events().for_category("slo")[0]->severity, Severity::kError);

  // Chaos-free fail/repair cycles: each restoration is fast, and the
  // growing healthy population pulls the cumulative p95 under budget.
  for (int cycle = 0; cycle < 40 && h->quantile(0.95) > kBudgetSeconds;
       ++cycle) {
    // The previous restoration may have re-routed the connection, so cut
    // whatever its first link is now.
    const LinkId cut =
        s.controller->connection(*id).plan.path.links.front();
    s.model->fail_link(cut);
    s.engine.run();
    s.model->repair_link(cut);
    s.engine.run();
    ASSERT_EQ(s.controller->connection(*id).state,
              core::ConnectionState::kActive);
  }
  ASSERT_LE(h->quantile(0.95), kBudgetSeconds)
      << "p95 never recovered; restoration is slower than the budget "
         "even without chaos";

  EXPECT_EQ(slo.evaluate_now(), 1u);  // healthy 1 of clear_after=2
  EXPECT_TRUE(slo.alerting(obj.name));
  EXPECT_EQ(slo.evaluate_now(), 0u);  // clears
  EXPECT_FALSE(slo.alerting(obj.name));
  EXPECT_EQ(tel.events().for_category("slo").size(), 2u);
  EXPECT_TRUE(tel.metrics().invalid_names().empty());
  s.model->attach_telemetry(nullptr);
}

// --- probe packs + end-to-end dashboard pieces ------------------------------

TEST(StandardProbes, CoverPoolsQueuesBreakersAndConnections) {
  core::TestbedScenario s(7);
  Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  GaugeSampler sampler(&s.engine, &tel);
  core::install_standard_probes(sampler, *s.controller, *s.model);
  const auto names = sampler.names();
  const auto has = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("ot_pool_free"));
  EXPECT_TRUE(has("regen_pool_free"));
  EXPECT_TRUE(has("ems_roadm_queue_depth"));
  EXPECT_TRUE(has("ems_roadm_breaker_open"));
  EXPECT_TRUE(has("connections_active"));
  EXPECT_TRUE(has("connections_blocked"));
  EXPECT_TRUE(has("route_cache_hit_rate"));

  sampler.sample_now();
  const double free0 = sampler.series("ot_pool_free")->rollup().last;
  EXPECT_GT(free0, 0.0);
  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iii, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) {
                      if (r.ok()) id = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(id.has_value());
  sampler.sample_now();
  EXPECT_LT(sampler.series("ot_pool_free")->rollup().last, free0);
  EXPECT_DOUBLE_EQ(sampler.series("connections_active")->rollup().last, 1.0);
  EXPECT_DOUBLE_EQ(sampler.series("ems_roadm_breaker_open")->rollup().last,
                   0.0);

  // The ROADM EMS dies: a setup against it times out until the breaker
  // opens, and the probe must read the breaker the controller keys by the
  // server's name.
  s.model->roadm_ems().crash_restart(minutes(10));
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [](Result<ConnectionId>) {});
  s.engine.run_until(s.engine.now() + minutes(8));
  ASSERT_EQ(s.controller->ems_health().state(s.model->roadm_ems().name()),
            core::EmsHealthTracker::BreakerState::kOpen);
  sampler.sample_now();
  EXPECT_DOUBLE_EQ(sampler.series("ems_roadm_breaker_open")->rollup().last,
                   1.0);
  EXPECT_DOUBLE_EQ(sampler.series("ems_fxc_breaker_open")->rollup().last,
                   0.0);
  s.model->attach_telemetry(nullptr);
}

}  // namespace
}  // namespace griphon::telemetry
