// Micro-benchmarks (google-benchmark) for the computational hot paths of
// the GRIPhoN controller and its substrates: the simulation engine, path
// computation, RWA planning, protocol codecs, the EMS command round trip
// and the telemetry span an armed deployment records per command. These
// bound how fast a production controller could make decisions,
// independent of EMS latency.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/inventory.hpp"
#include "core/network_model.hpp"
#include "core/rwa.hpp"
#include "dwdm/transponder.hpp"
#include "ems/ems_server.hpp"
#include "proto/client.hpp"
#include "proto/messages.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/builders.hpp"

using namespace griphon;

namespace {

void BM_EngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i)
      engine.schedule(microseconds(i), []() {});
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleFire);

// One EMS command's engine traffic per item: a frame delivery whose
// callback owns a 40-byte frame (too large for std::function's small
// buffer), and a 5 s request timer that the delivery cancels, as a
// response does. BM_EngineScheduleFire sees neither cost.
void BM_EngineCommandPattern(benchmark::State& state) {
  constexpr std::size_t kCommands = 1000;
  const proto::Bytes frame(40, 0x5A);
  std::vector<sim::EventHandle> timers(kCommands);
  for (auto _ : state) {
    sim::Engine engine;
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < kCommands; ++i) {
      engine.schedule(microseconds(static_cast<std::int64_t>(i)),
                      [&engine, &timers, &delivered, i, frame]() {
                        delivered += frame.size();
                        engine.cancel(timers[i]);
                      });
      timers[i] = engine.schedule(seconds(5), []() {});
    }
    benchmark::DoNotOptimize(engine.run());
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kCommands));
}
BENCHMARK(BM_EngineCommandPattern);

// One EMS command per item, end to end: RequestClient::request, the frame
// over the control channel, the EMS's dedup/queue/dispatch bookkeeping,
// the device operation, the cached response back over the channel and the
// client callback. Commands rotate over 4,000 transponders on one EMS, so
// the element table and the response cache are in steady state (the cache
// full, every element seen) after the first batch.
void BM_EmsCommandRoundTrip(benchmark::State& state) {
  constexpr std::size_t kElements = 4000;
  constexpr std::size_t kCommands = 1000;
  sim::Engine engine{3};
  proto::ControlChannel chan(&engine, proto::ControlChannel::Params{});
  ems::EmsServer server(&engine, &chan.b(),
                        ems::EmsLatencyProfile::fast_hardware(), "roadm-ems");
  proto::RequestClient client(&engine, &chan.a(),
                              proto::RequestClient::Params{});
  std::vector<std::unique_ptr<dwdm::Transponder>> ots;
  ots.reserve(kElements);
  for (std::size_t i = 0; i < kElements; ++i) {
    ots.push_back(std::make_unique<dwdm::Transponder>(
        TransponderId{i}, NodeId{0}, rates::k10G));
    server.manage_ot(ots.back().get());
  }
  std::size_t next = 0;
  std::size_t ok = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kCommands; ++i, ++next) {
      const proto::Message m = proto::OtTune{
          TransponderId{next % kElements}, static_cast<std::int32_t>(next % 40)};
      client.request(m, [&ok](Result<proto::Response> r) {
        ok += r.ok() && r.value().ok();
      });
    }
    engine.run();
  }
  benchmark::DoNotOptimize(ok);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kCommands));
}
BENCHMARK(BM_EmsCommandRoundTrip);

void BM_DijkstraBackbone(benchmark::State& state) {
  const auto g = topology::us_backbone();
  for (auto _ : state) {
    auto p = topology::shortest_path(g, NodeId{0}, NodeId{13},
                                     topology::distance_weight());
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_DijkstraBackbone);

void BM_YenKShortest(benchmark::State& state) {
  const auto g = topology::us_backbone();
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto paths = topology::k_shortest_paths(g, NodeId{0}, NodeId{13}, k,
                                            topology::distance_weight());
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_YenKShortest)->Arg(2)->Arg(4)->Arg(8);

void BM_BhandariDisjointPair(benchmark::State& state) {
  const auto g = topology::us_backbone();
  for (auto _ : state) {
    auto pair = topology::disjoint_pair(g, NodeId{0}, NodeId{13},
                                        topology::distance_weight());
    benchmark::DoNotOptimize(pair);
  }
}
BENCHMARK(BM_BhandariDisjointPair);

void BM_RwaPlanBackbone(benchmark::State& state) {
  sim::Engine engine(1);
  core::NetworkModel::Config cfg;
  cfg.with_otn = false;
  cfg.regens_per_node = 4;
  core::NetworkModel model(&engine, topology::us_backbone(), cfg);
  core::Inventory inv(&model);
  core::RwaEngine rwa(&model, &inv, core::RwaEngine::Params{});
  for (auto _ : state) {
    auto plan = rwa.plan(NodeId{0}, NodeId{13}, rates::k10G);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_RwaPlanBackbone);

void BM_FrameEncode(benchmark::State& state) {
  const proto::Message m =
      proto::RoadmAddDrop{RoadmId{1}, PortId{6}, 1, 33, true};
  for (auto _ : state) {
    auto bytes = proto::encode_frame(12345, m);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  const proto::Bytes bytes = proto::encode_frame(
      12345,
      proto::Message{proto::RoadmAddDrop{RoadmId{1}, PortId{6}, 1, 33, true}});
  for (auto _ : state) {
    auto frame = proto::decode_frame(bytes);
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_FrameDecode);

// One EMS command's span with telemetry armed, as the controller records
// it: opened under its connection's setup span with the command's name and
// the EMS domain (a std::string the controller holds), closed with the
// outcome. The store is cleared every 64k spans so the run's memory stays
// bounded; the clear and the block allocations the store makes as it
// grows are part of the cost.
void BM_ArmedCommandSpan(benchmark::State& state) {
  constexpr std::size_t kSpansPerClear = 1 << 16;
  sim::Engine engine;
  telemetry::Telemetry sink(&engine);
  const std::string domain = "roadm-ems";
  telemetry::SpanId setup =
      sink.span_start("connection_setup", "controller", 1);
  std::size_t recorded = 0;
  for (auto _ : state) {
    const telemetry::SpanId span =
        sink.span_start("roadm.add_drop", domain, 0, setup);
    sink.span_end(span, true);
    if (++recorded == kSpansPerClear) {
      recorded = 0;
      sink.spans().clear();
      setup = sink.span_start("connection_setup", "controller", 1);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArmedCommandSpan);

void BM_ChannelSetIntersect(benchmark::State& state) {
  dwdm::ChannelSet a = dwdm::ChannelSet::all(80);
  dwdm::ChannelSet b;
  for (int ch = 0; ch < 80; ch += 3) b.add(ch);
  for (auto _ : state) {
    dwdm::ChannelSet c = a & b;
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ChannelSetIntersect);

}  // namespace

BENCHMARK_MAIN();
