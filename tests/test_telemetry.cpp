// Telemetry subsystem tests.
//
// Unit level: histogram bucket/quantile math, registry idempotency and the
// Prometheus / JSON-row expositions, the griphon_<layer>_<name> metric
// naming scheme, span nesting / tag inheritance / retroactive recording,
// and the waterfall renderer. Integration level: a real testbed setup's
// span tree tiles the end-to-end setup duration exactly, a fiber cut
// decomposes into detect → localize → replan → reprovision, and every
// metric the instrumented layers register conforms to the naming scheme
// (this doubles as the CI name-scheme check).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <iterator>
#include <new>
#include <string>
#include <variant>
#include <vector>

#include "core/observability.hpp"
#include "core/scenario.hpp"
#include "ems/ems_server.hpp"
#include "proto/messages.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeline.hpp"
#include "telemetry/trace_export.hpp"

namespace griphon::telemetry {
namespace {

constexpr auto npos = std::string::npos;

// --- Histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundsAreUpperInclusive) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // exactly at a bound lands in that bound's bucket (le)
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(9.0);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);  // overflow bucket
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  Histogram h({1.0, 2.0});
  for (int i = 0; i < 10; ++i) h.observe(0.5);  // all rank mass in bucket 0
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
  // Mass split over two buckets: the median falls on the first bound.
  Histogram h2({1.0, 2.0});
  h2.observe(0.5);
  h2.observe(1.5);
  EXPECT_DOUBLE_EQ(h2.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h2.quantile(1.0), 2.0);
}

TEST(Histogram, QuantileEmptyAndOverflowClamp) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.observe(100.0);                        // overflow only
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);  // clamped to last finite bound
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram(std::vector<double>{}), std::logic_error);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.counter("griphon_test_hits_total", "hits");
  a->inc();
  Counter* b = reg.counter("griphon_test_hits_total", "help ignored");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("griphon_test_thing_total", "h");
  EXPECT_THROW(reg.gauge("griphon_test_thing_total", "h"), std::logic_error);
  EXPECT_THROW(reg.histogram("griphon_test_thing_total", "h"),
               std::logic_error);
}

TEST(MetricsRegistry, NameScheme) {
  EXPECT_TRUE(MetricsRegistry::name_ok("griphon_rwa_plans_total"));
  EXPECT_TRUE(MetricsRegistry::name_ok("griphon_ems_roadm_task_seconds"));
  EXPECT_FALSE(MetricsRegistry::name_ok("rwa_plans_total"));  // no prefix
  EXPECT_FALSE(MetricsRegistry::name_ok("griphon_plans"));    // two tokens
  EXPECT_FALSE(MetricsRegistry::name_ok("griphon__plans_total"));  // empty
  EXPECT_FALSE(MetricsRegistry::name_ok("griphon_RWA_plans_total"));
  EXPECT_FALSE(MetricsRegistry::name_ok("griphon_rwa_plans_"));

  MetricsRegistry reg;
  reg.counter("griphon_rwa_plans_total", "conforms");
  reg.counter("bad_name", "violates the scheme");
  const auto bad = reg.invalid_names();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "bad_name");
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("griphon_test_hits_total", "hits")->inc(3);
  reg.gauge("griphon_test_level_value", "level")->set(2.5);
  Histogram* h =
      reg.histogram("griphon_test_wait_seconds", "wait", {1.0, 2.0});
  h->observe(0.5);
  h->observe(5.0);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP griphon_test_hits_total hits"), npos);
  EXPECT_NE(text.find("# TYPE griphon_test_hits_total counter"), npos);
  EXPECT_NE(text.find("griphon_test_hits_total 3"), npos);
  EXPECT_NE(text.find("# TYPE griphon_test_level_value gauge"), npos);
  EXPECT_NE(text.find("griphon_test_level_value 2.5"), npos);
  EXPECT_NE(text.find("# TYPE griphon_test_wait_seconds histogram"), npos);
  // Buckets are cumulative, with the +Inf total and _sum/_count samples.
  EXPECT_NE(text.find("griphon_test_wait_seconds_bucket{le=\"1\"} 1"), npos);
  EXPECT_NE(text.find("griphon_test_wait_seconds_bucket{le=\"2\"} 1"), npos);
  EXPECT_NE(text.find("griphon_test_wait_seconds_bucket{le=\"+Inf\"} 2"),
            npos);
  EXPECT_NE(text.find("griphon_test_wait_seconds_sum 5.5"), npos);
  EXPECT_NE(text.find("griphon_test_wait_seconds_count 2"), npos);
}

TEST(MetricsRegistry, JsonRowsExpandHistograms) {
  MetricsRegistry reg;
  reg.counter("griphon_test_hits_total", "hits")->inc(3);
  Histogram* h =
      reg.histogram("griphon_test_wait_seconds", "wait", {1.0, 2.0});
  h->observe(0.5);
  const std::string rows = reg.to_json_rows("smoke");
  EXPECT_NE(rows.find("\"bench\": \"smoke\""), npos);
  EXPECT_NE(rows.find("\"metric\": \"griphon_test_hits_total\""), npos);
  EXPECT_NE(rows.find("griphon_test_wait_seconds_p95"), npos);
  EXPECT_NE(rows.find("\"unit\": \"s\""), npos);  // *_seconds histograms
}

TEST(MetricsRegistry, LabeledSeriesAreIndependent) {
  MetricsRegistry reg;
  Counter* a = reg.counter("griphon_test_hits_total", "hits",
                           {{"customer", "1"}});
  Counter* b = reg.counter("griphon_test_hits_total", "hits",
                           {{"customer", "2"}});
  Counter* bare = reg.counter("griphon_test_hits_total", "hits");
  EXPECT_NE(a, b);
  EXPECT_NE(a, bare);
  a->inc(3);
  b->inc(5);
  EXPECT_EQ(reg.find_counter("griphon_test_hits_total",
                             {{"customer", "1"}})->value(), 3u);
  EXPECT_EQ(reg.find_counter("griphon_test_hits_total",
                             {{"customer", "2"}})->value(), 5u);
  EXPECT_EQ(reg.find_counter("griphon_test_hits_total")->value(), 0u);
  // Label order never splits a series; same set = same handle.
  EXPECT_EQ(reg.counter("griphon_test_multi_total", "m",
                        {{"a", "1"}, {"b", "2"}}),
            reg.counter("griphon_test_multi_total", "m",
                        {{"b", "2"}, {"a", "1"}}));
  // Each label set is one series; three registered under hits_total.
  EXPECT_EQ(reg.size(), 4u);
}

TEST(MetricsRegistry, LabeledExpositionGroupsFamilies) {
  MetricsRegistry reg;
  reg.counter("griphon_test_hits_total", "hits", {{"customer", "2"}})->inc(7);
  reg.counter("griphon_test_hits_total", "hits", {{"customer", "1"}})->inc(3);
  const std::string text = reg.to_prometheus();
  // One HELP/TYPE header for the family, then every labeled sample.
  EXPECT_EQ(text.find("# HELP griphon_test_hits_total hits"),
            text.rfind("# HELP griphon_test_hits_total hits"));
  EXPECT_NE(text.find("griphon_test_hits_total{customer=\"1\"} 3"), npos);
  EXPECT_NE(text.find("griphon_test_hits_total{customer=\"2\"} 7"), npos);
  // JSON rows carry the label block in the metric name, escaped.
  const std::string rows = reg.to_json_rows("smoke");
  EXPECT_NE(rows.find("griphon_test_hits_total{customer=\\\"1\\\"}"), npos);
  // Family names are validated; the label block is not part of the name.
  EXPECT_TRUE(reg.invalid_names().empty());
}

TEST(MetricsRegistry, LabelValuesEscapeNewlines) {
  MetricsRegistry reg;
  reg.counter("griphon_test_hits_total", "hits",
              {{"reason", "line1\nline2"}})
      ->inc(2);
  // A literal newline in a label value would split the sample line and
  // corrupt the exposition; it must come out as the two-character '\n'.
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("reason=\"line1\\nline2\""), npos);
  EXPECT_EQ(text.find("line1\nline2"), npos);
  // The escaped key still resolves to the same series on lookup.
  const auto* c =
      reg.find_counter("griphon_test_hits_total", {{"reason", "line1\nline2"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 2u);
}

// --- SpanTracer ------------------------------------------------------------

TEST(SpanTracer, NestingAndTagInheritance) {
  SpanTracer t;
  const SpanId root = t.start("setup", "controller", 77, 0, seconds(1));
  const SpanId child = t.start("ot.tune", "controller", 0, root, seconds(2));
  EXPECT_EQ(t.find(child)->tag, 77u);  // inherited from the parent
  EXPECT_EQ(t.open_count(), 2u);
  t.end(child, seconds(5));
  t.end(root, seconds(6), false, "boom");
  EXPECT_EQ(t.open_count(), 0u);
  EXPECT_EQ(t.find(child)->duration(), seconds(3));
  EXPECT_FALSE(t.find(root)->ok);
  EXPECT_EQ(t.detail(*t.find(root)), "boom");
  EXPECT_EQ(t.for_tag(77).size(), 2u);
  ASSERT_EQ(t.children_of(root).size(), 1u);
  EXPECT_EQ(t.children_of(root)[0]->name, "ot.tune");
}

TEST(SpanTracer, NullUnknownAndDoubleEndAreNoOps) {
  SpanTracer t;
  t.end(0, seconds(1));   // null handle
  t.end(42, seconds(1));  // unknown id
  const SpanId s = t.start("x", "a", 1, 0, seconds(0));
  t.end(s, seconds(2));
  t.end(s, seconds(9), false);  // second close is ignored
  EXPECT_EQ(t.find(s)->end, seconds(2));
  EXPECT_TRUE(t.find(s)->ok);
  EXPECT_EQ(t.open_count(), 0u);
}

TEST(SpanTracer, RetroactiveRecordInheritsTagAndIsClosed) {
  SpanTracer t;
  const SpanId root =
      t.start("restoration", "controller", 9, 0, seconds(10));
  const SpanId d = t.record("detect", "failure-manager", 0, root, seconds(4),
                            seconds(6), true, "link 3");
  const Span* sp = t.find(d);
  ASSERT_NE(sp, nullptr);
  EXPECT_TRUE(sp->done);
  EXPECT_EQ(sp->tag, 9u);
  EXPECT_EQ(sp->duration(), seconds(2));
  EXPECT_EQ(t.detail(*sp), "link 3");
  EXPECT_EQ(t.open_count(), 1u);  // only the root is still open
}

TEST(SpanTracer, JsonFiltersByTag) {
  SpanTracer t;
  t.record("a", "x", 1, 0, seconds(0), seconds(1));
  t.record("b", "x", 2, 0, seconds(0), seconds(1));
  const std::string tag1 = t.to_json(1);
  EXPECT_NE(tag1.find("\"name\":\"a\""), npos);
  EXPECT_EQ(tag1.find("\"name\":\"b\""), npos);
  const std::string all = t.to_json();
  EXPECT_NE(all.find("\"name\":\"a\""), npos);
  EXPECT_NE(all.find("\"name\":\"b\""), npos);
}

TEST(SpanTracer, ClearRetiresOldIdsAndNewOnesResolve) {
  SpanTracer t;
  const SpanId old_open = t.start("a", "x", 1, 0, seconds(0));
  const SpanId old_closed = t.record("b", "x", 1, 0, seconds(0), seconds(1));
  t.clear();
  EXPECT_EQ(t.find(old_open), nullptr);
  EXPECT_EQ(t.find(old_closed), nullptr);
  t.end(old_open, seconds(2));  // retired id: no-op
  EXPECT_EQ(t.open_count(), 0u);
  EXPECT_TRUE(t.spans().empty());

  const SpanId fresh = t.start("c", "y", 2, 0, seconds(3));
  EXPECT_GT(fresh, old_closed);  // ids are never reused
  ASSERT_NE(t.find(fresh), nullptr);
  EXPECT_EQ(t.find(fresh)->name, "c");
  EXPECT_EQ(t.find(fresh + 1), nullptr);  // not handed out yet
  t.end(fresh, seconds(4));
  EXPECT_TRUE(t.find(fresh)->done);
  EXPECT_EQ(t.open_count(), 0u);
}

TEST(SpanTracer, TagInheritanceSurvivesClear) {
  SpanTracer t;
  const SpanId old_root = t.start("old", "x", 5, 0, seconds(0));
  t.clear();
  const SpanId root = t.start("setup", "controller", 77, 0, seconds(1));
  const SpanId child = t.start("ot.tune", "controller", 0, root, seconds(2));
  const SpanId late =
      t.record("detect", "fm", 0, child, seconds(0), seconds(1));
  EXPECT_EQ(t.find(child)->tag, 77u);
  EXPECT_EQ(t.find(late)->tag, 77u);
  // A parent retired by clear() has no tag to pass on.
  const SpanId orphan = t.start("orphan", "x", 0, old_root, seconds(3));
  EXPECT_EQ(t.find(orphan)->tag, 0u);
  EXPECT_EQ(t.children_of(root).size(), 1u);
}

TEST(SpanTracer, FoundSpanStaysPutAcrossAppends) {
  SpanTracer t;
  const SpanId first = t.start("first", "x", 3, 0, seconds(0));
  const Span* held = t.find(first);
  ASSERT_NE(held, nullptr);
  for (int i = 0; i < 10'000; ++i)
    t.record("filler", "x", 0, first, seconds(i), seconds(i + 1));
  EXPECT_EQ(t.find(first), held);
  EXPECT_EQ(held->name, "first");
  t.end(first, seconds(10'001));
  EXPECT_TRUE(held->done);
  EXPECT_EQ(t.spans().size(), 10'001u);
  EXPECT_EQ(t.find(first + 10'000)->tag, 3u);
}

// --- TimelineReport --------------------------------------------------------

TEST(TimelineReport, RendersIndentedWaterfall) {
  SpanTracer t;
  const SpanId root =
      t.start("connection_setup", "controller", 5, 0, seconds(0));
  const SpanId child =
      t.start("path_computation", "controller", 0, root, seconds(0));
  t.end(child, seconds(1));
  t.end(root, seconds(4));
  TimelineReport report(&t);
  const std::string text = report.render(5);
  EXPECT_NE(text.find("timeline tag=5"), npos);
  EXPECT_NE(text.find("total=4.000s"), npos);
  EXPECT_NE(text.find("connection_setup"), npos);
  EXPECT_NE(text.find("  path_computation"), npos);  // indented child
  EXPECT_NE(text.find('#'), npos);                   // bars drawn
  EXPECT_TRUE(report.render(999).empty());           // unknown tag
}

// --- Telemetry facade ------------------------------------------------------

TEST(Telemetry, DetectNoteIsConsumedOnce) {
  sim::Engine e(1);
  Telemetry tel(&e);
  EXPECT_EQ(tel.close_detect(5), 0u);  // nothing noted
  tel.note_link_failed(5);
  const SpanId d = tel.close_detect(5);
  EXPECT_NE(d, 0u);
  EXPECT_EQ(tel.spans().find(d)->name, "detect");
  EXPECT_EQ(tel.close_detect(5), 0u);  // note consumed
}

// --- Full-stack integration ------------------------------------------------

TEST(TelemetryIntegration, SetupSpanTreeTilesSetupDuration) {
  core::NetworkModel::Config cfg;
  cfg.with_otn = false;
  // Exact sum-tiling only holds for the sequential (2011 testbed) executor;
  // the DAG executor overlaps dialogues, so its root span is tiled by the
  // critical path instead (checked in bench_table2_setup_time).
  core::GriphonController::Params params;
  params.exec_mode = core::ExecMode::kSequential;
  core::TestbedScenario s(7, cfg, params);
  Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);

  std::optional<ConnectionId> id;
  s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                    core::ProtectionMode::kUnprotected,
                    [&](Result<ConnectionId> r) {
                      if (r.ok()) id = r.value();
                    });
  s.engine.run();
  ASSERT_TRUE(id.has_value());

  const Span* root = nullptr;
  for (const Span* sp : tel.spans().for_tag(core::telemetry_tag(*id)))
    if (sp->name == "connection_setup") root = sp;
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->done);
  EXPECT_TRUE(root->ok);

  // Sequential orchestration: path computation plus the EMS command train
  // tile the root span — no idle gaps, no uninstrumented phase.
  SimTime phase_sum{};
  bool saw_path_computation = false;
  bool saw_ems_command = false;
  for (const Span* child : tel.spans().children_of(root->id)) {
    phase_sum += child->duration();
    if (child->name == "path_computation") saw_path_computation = true;
    if (child->name.find('.') != npos) saw_ems_command = true;
  }
  EXPECT_TRUE(saw_path_computation);
  EXPECT_TRUE(saw_ems_command);
  EXPECT_EQ(phase_sum, root->duration());
  EXPECT_EQ(root->duration(), s.controller->connection(*id).setup_duration);
  EXPECT_EQ(tel.spans().open_count(), 0u);

  // Metrics side: layers registered under the scheme, and counted the work.
  EXPECT_TRUE(tel.metrics().invalid_names().empty())
      << "metric name violates griphon_<layer>_<name>";
  const Counter* ok =
      tel.metrics().find_counter("griphon_controller_setups_ok_total");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->value(), 1u);
  const Histogram* setup_seconds =
      tel.metrics().find_histogram("griphon_controller_setup_seconds");
  ASSERT_NE(setup_seconds, nullptr);
  EXPECT_EQ(setup_seconds->count(), 1u);
}

TEST(TelemetryIntegration, RestorationDecomposesIntoPhases) {
  core::TestbedScenario s(11);
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

  const LinkId link =
      s.controller->connection(*id).plan.path.links.front();
  s.model->fail_link(link);
  s.engine.run();
  ASSERT_GE(s.controller->stats().restorations_ok, 1u);

  std::set<std::string> names;
  for (const Span* sp : tel.spans().for_tag(core::telemetry_tag(*id)))
    names.insert(sp->name);
  for (const char* phase :
       {"restoration", "release_old_path", "replan", "reprovision"})
    EXPECT_TRUE(names.count(phase)) << "missing span: " << phase;

  // detect and localize are plant-level retroactive spans (tag 0).
  bool detect = false;
  bool localize = false;
  for (const Span& sp : tel.spans().spans()) {
    if (sp.name == "detect") detect = true;
    if (sp.name == "localize") localize = true;
  }
  EXPECT_TRUE(detect);
  EXPECT_TRUE(localize);
  EXPECT_EQ(tel.spans().open_count(), 0u);

  const Counter* restored =
      tel.metrics().find_counter("griphon_controller_restorations_ok_total");
  ASSERT_NE(restored, nullptr);
  EXPECT_GE(restored->value(), 1u);
  EXPECT_TRUE(tel.metrics().invalid_names().empty());
}


// --- Span store equivalence --------------------------------------------------
// A scripted testbed lifecycle touching every span the controller and the
// plant record: a setup, a setup whose activation is vetoed and rolled
// back, a release, a fiber cut with its restoration, and a bridge-and-roll.
// The three span renderings are pinned by hash; the values were taken from
// the string-per-field span store, so a store that changes layout must
// still print the same bytes.

/// FNV-1a 64: a stable digest for pinning long renderings.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Vetoes the first OT activation it sees (a non-retryable device fault),
/// which fails that setup and runs its rollback.
struct VetoFirstActivation final : ems::EmsFaultHook {
  bool armed = true;
  Status on_command(const std::string&, const proto::Message& m) override {
    if (armed && std::holds_alternative<proto::OtSetState>(m) &&
        std::get<proto::OtSetState>(m).action ==
            proto::OtSetState::Action::kActivate) {
      armed = false;
      return Status{ErrorCode::kDeviceFault, "chaos: activation vetoed"};
    }
    return Status::success();
  }
  double latency_scale(const std::string&) override { return 1.0; }
};

struct ScriptedLifecycle {
  core::TestbedScenario s{23};
  Telemetry tel{&s.engine};

  ScriptedLifecycle() {
    s.model->attach_telemetry(&tel);
    const ConnectionId kept = connect(s.site_i, s.site_iv).value();

    VetoFirstActivation veto;
    s.model->roadm_ems().set_fault_hook(&veto);
    EXPECT_FALSE(connect(s.site_i, s.site_iii).ok());
    s.model->roadm_ems().set_fault_hook(nullptr);

    const ConnectionId released = connect(s.site_iii, s.site_iv).value();
    std::optional<Status> gone;
    s.portal->disconnect(released, [&](Status st) { gone = st; });
    s.engine.run();
    EXPECT_TRUE(gone && gone->ok());

    const LinkId cut = s.controller->connection(kept).plan.path.links.front();
    s.model->fail_link(cut);
    s.engine.run();
    EXPECT_GE(s.controller->stats().restorations_ok, 1u);
    s.model->repair_link(cut);
    s.engine.run();

    core::Exclusions avoid;
    for (const LinkId l : s.controller->connection(kept).plan.path.links)
      avoid.links.insert(l);
    std::optional<Status> rolled;
    s.controller->bridge_and_roll(kept, avoid,
                                  [&](Status st) { rolled = st; });
    s.engine.run();
    EXPECT_TRUE(rolled && rolled->ok());
  }

  Result<ConnectionId> connect(MuxponderId a, MuxponderId b) {
    std::optional<Result<ConnectionId>> r;
    s.portal->connect(a, b, rates::k10G, core::ProtectionMode::kRestorable,
                      [&](Result<ConnectionId> got) { r = std::move(got); });
    s.engine.run();
    EXPECT_TRUE(r.has_value());
    return std::move(*r);
  }

  /// Every tagged connection's waterfall, in first-appearance order.
  [[nodiscard]] std::string timelines() const {
    std::string out;
    std::set<CorrelationTag> seen;
    const TimelineReport report(&tel.spans());
    for (const Span& sp : tel.spans().spans())
      if (sp.tag != 0 && seen.insert(sp.tag).second)
        out += report.render(sp.tag);
    return out;
  }
};

TEST(SpanStore, ScriptedLifecycleRendersTheSameBytes) {
  const ScriptedLifecycle run;
  EXPECT_EQ(run.tel.spans().spans().size(), 102u);
  EXPECT_EQ(run.tel.spans().open_count(), 0u);
  EXPECT_EQ(fnv1a(run.tel.spans().to_json()), 1915460913123618129ull);
  EXPECT_EQ(fnv1a(TraceExporter{}.to_json(run.tel)), 11646455857434338889ull);
  EXPECT_EQ(fnv1a(run.timelines()), 11597681456890342251ull);
  // The vetoed activation's error reached both its command span and the
  // setup it failed.
  EXPECT_NE(run.timelines().find("| chaos: activation vetoed"), npos);
  // The failed setup's undo dialogues are its children too, so its
  // children account for it up to its last instant.
  const Span* vetoed = nullptr;
  for (const Span& sp : run.tel.spans().spans())
    if (sp.name == "connection_setup" && !sp.ok) vetoed = &sp;
  ASSERT_NE(vetoed, nullptr);
  SimTime last_child_end{};
  for (const Span& sp : run.tel.spans().spans())
    if (sp.parent == vetoed->id)
      last_child_end = std::max(last_child_end, sp.end);
  EXPECT_EQ(last_child_end, vetoed->end);
  EXPECT_EQ(last_child_end - vetoed->start, microseconds(32'078'330));
}

TEST(SpanStore, PoolHoldsTheVocabularyNotTheSpans) {
  const char* const names[] = {"ot.tune", "roadm.add_drop", "fxc.xconnect",
                               "nte.port", "connection_setup"};
  const char* const actors[] = {"roadm-ems", "fxc-ems", "controller"};
  SpanTracer t;
  for (int i = 0; i < 100'000; ++i) {
    // Views into fresh buffers: interning must compare text, not pointers.
    const std::string name = names[i % std::size(names)];
    const std::string actor = actors[i % std::size(actors)];
    const SpanId id = t.start(name, actor, 1, 0, seconds(i));
    t.end(id, seconds(i + 1));
  }
  EXPECT_EQ(t.spans().size(), 100'000u);
  EXPECT_EQ(t.interned_count(), std::size(names) + std::size(actors));
  EXPECT_EQ(&t.spans().front().name, &t.spans()[5].name);  // one copy
  EXPECT_EQ(t.spans()[7].name, "fxc.xconnect");
  EXPECT_EQ(t.spans()[7].actor, "fxc-ems");
  // clear() drops spans, not the vocabulary.
  t.clear();
  t.start("ot.tune", "roadm-ems", 1, 0, seconds(0));
  EXPECT_EQ(t.interned_count(), std::size(names) + std::size(actors));
}

TEST(SpanStore, DetailIsKeptPerSpanAndOnlyWhereGiven) {
  SpanTracer t;
  const SpanId ok = t.start("ot.set_state", "roadm-ems", 1, 0, seconds(0));
  const SpanId bad = t.start("ot.set_state", "roadm-ems", 1, 0, seconds(0));
  t.end(ok, seconds(1));
  t.end(bad, seconds(1), false, "chaos: activation vetoed");
  const SpanId late = t.record("detect", "failure-manager", 0, 0, seconds(0),
                               seconds(2), true, "link 3");
  EXPECT_EQ(t.detail(*t.find(ok)), "");
  EXPECT_EQ(t.find(ok)->detail_slot, 0u);
  EXPECT_FALSE(t.find(bad)->ok);
  EXPECT_EQ(t.detail(*t.find(bad)), "chaos: activation vetoed");
  EXPECT_EQ(t.detail(*t.find(late)), "link 3");
  EXPECT_NE(t.to_json().find("\"detail\":\"chaos: activation vetoed\""),
            npos);
  // A second close keeps the first detail.
  t.end(bad, seconds(5), true, "overwritten?");
  EXPECT_EQ(t.detail(*t.find(bad)), "chaos: activation vetoed");
}

// --- Cached metric handles ---------------------------------------------------

TEST(MetricHandles, ArmedHotPathsResolveNothingByNameAfterWarmUp) {
  core::TestbedScenario s(31);
  Telemetry tel(&s.engine);
  s.model->attach_telemetry(&tel);
  GaugeSampler sampler(&s.engine, &tel);
  core::install_standard_probes(sampler, *s.controller, *s.model);
  SloMonitor slo(&s.engine, &tel);
  const MetricsRegistry& m = tel.metrics();
  slo.add_objective(setup_latency_objective(m, 60));
  slo.add_objective(restoration_time_objective(m, 100));
  slo.add_objective(blocking_rate_objective(m, 0.2));
  slo.add_objective(bod_deadline_miss_objective(m, 0.05));
  slo.add_objective(restoration_backlog_objective(m, 8));
  sampler.start(minutes(1));
  slo.start(minutes(1));

  // One connection set up, held past a few ticks, and released.
  const auto cycle = [&] {
    std::optional<ConnectionId> id;
    s.portal->connect(s.site_i, s.site_iv, rates::k10G,
                      core::ProtectionMode::kUnprotected,
                      [&](Result<ConnectionId> r) {
                        ASSERT_TRUE(r.ok());
                        id = r.value();
                      });
    s.engine.run_until(s.engine.now() + minutes(5));
    ASSERT_TRUE(id.has_value());
    std::optional<Status> gone;
    s.portal->disconnect(*id, [&](Status st) { gone = st; });
    s.engine.run_until(s.engine.now() + minutes(5));
    ASSERT_TRUE(gone && gone->ok());
  };
  cycle();  // warm-up: every series this traffic touches registers
  const std::uint64_t warm = m.by_name_calls();
  const std::uint64_t ticks = sampler.tick_count();
  for (int i = 0; i < 3; ++i) cycle();
  EXPECT_GE(sampler.tick_count(), ticks + 25);
  EXPECT_EQ(m.by_name_calls(), warm);
  // Still counted: the fleet series and the one customer's series.
  for (const char* family : {"griphon_controller_setups_ok_total",
                             "griphon_controller_releases_total"}) {
    const std::vector<const Counter*> series = m.counter_family(family);
    ASSERT_EQ(series.size(), 2u) << family;
    for (const Counter* c : series) EXPECT_EQ(c->value(), 4u) << family;
  }

  // Failure handling: cut a fiber under a restorable connection, let it
  // restore, roll it off the restored path, repair the fiber and audit.
  // I and III are joined by three disjoint routes, so every round finds
  // both a restoration and a roll target.
  std::optional<ConnectionId> held;
  s.portal->connect(s.site_i, s.site_iii, rates::k10G,
                    core::ProtectionMode::kRestorable,
                    [&](Result<ConnectionId> r) {
                      ASSERT_TRUE(r.ok());
                      held = r.value();
                    });
  s.engine.run_until(s.engine.now() + minutes(5));
  ASSERT_TRUE(held.has_value());
  const auto settle = [&] {
    s.engine.run_until(s.engine.now() + minutes(10));
  };
  const auto failure_round = [&] {
    const LinkId cut =
        s.controller->connection(*held).plan.path.links.front();
    s.model->fail_link(cut);
    settle();
    ASSERT_TRUE(s.controller->connection(*held).is_up());
    std::optional<Status> rolled;
    s.controller->bridge_and_roll(*held, {}, [&](Status st) { rolled = st; });
    settle();
    ASSERT_TRUE(rolled && rolled->ok());
    s.model->repair_link(cut);
    settle();
    std::optional<bool> audited;
    s.controller->resync([&](Result<core::GriphonController::ResyncReport> r) {
      audited = r.ok();
    });
    settle();
    ASSERT_TRUE(audited && *audited);
  };
  failure_round();  // warm-up: the failure-path series register
  const std::uint64_t warm_failures = m.by_name_calls();
  const std::size_t restorations = s.controller->stats().restorations_ok;
  for (int i = 0; i < 2; ++i) failure_round();
  EXPECT_EQ(s.controller->stats().restorations_ok, restorations + 2);
  EXPECT_EQ(m.by_name_calls(), warm_failures);
  const Counter* rolls = m.find_counter("griphon_controller_rolls_ok_total");
  ASSERT_NE(rolls, nullptr);
  EXPECT_EQ(rolls->value(), 3u);
}

TEST(MetricHandles, CachedLookupRerunsOnlyAfterARegistration) {
  MetricsRegistry reg;
  CachedLookup<const Counter*> lookup("griphon_test_hits_total");
  EXPECT_EQ(lookup(reg), nullptr);
  const std::uint64_t after_miss = reg.by_name_calls();
  EXPECT_EQ(lookup(reg), nullptr);  // nothing registered since: no lookup
  EXPECT_EQ(reg.by_name_calls(), after_miss);
  Counter* hits = reg.counter("griphon_test_hits_total", "hits");
  EXPECT_EQ(lookup(reg), hits);
  const std::uint64_t after_hit = reg.by_name_calls();
  EXPECT_EQ(lookup(reg), hits);
  EXPECT_EQ(reg.by_name_calls(), after_hit);

  // Another registry is another answer, even with nothing new in it.
  MetricsRegistry other;
  EXPECT_EQ(lookup(other), nullptr);
}

TEST(MetricHandles, ARegistryBuiltAtAFreedOnesAddressIsAnotherRegistry) {
  CachedCounter hits("griphon_test_hits_total", "hits");
  alignas(MetricsRegistry) unsigned char slot[sizeof(MetricsRegistry)];
  auto* first = new (slot) MetricsRegistry;
  hits.in(*first).inc();
  first->~MetricsRegistry();
  auto* second = new (slot) MetricsRegistry;  // the freed one's address
  hits.in(*second).inc(2);
  const Counter* counted = second->find_counter("griphon_test_hits_total");
  ASSERT_NE(counted, nullptr);
  EXPECT_EQ(counted->value(), 2u);
  second->~MetricsRegistry();
}

TEST(MetricHandles, KeyedCountersRegisterEachKeyOnce) {
  MetricsRegistry reg;
  KeyedCounters family("griphon_test_events_total", "events");
  family.in(reg, "customer", 3).inc();
  family.in(reg, "customer", 4).inc(2);
  const std::uint64_t warm = reg.by_name_calls();
  family.in(reg, "customer", 3).inc();
  EXPECT_EQ(reg.by_name_calls(), warm);
  EXPECT_EQ(reg.find_counter("griphon_test_events_total",
                             {{"customer", "3"}})
                ->value(),
            2u);
  EXPECT_EQ(reg.counter_family("griphon_test_events_total").size(), 2u);
  // A new registry gets its own series.
  MetricsRegistry other;
  family.in(other, "customer", 3).inc();
  EXPECT_EQ(other.find_counter("griphon_test_events_total",
                               {{"customer", "3"}})
                ->value(),
            1u);
}
}  // namespace
}  // namespace griphon::telemetry
