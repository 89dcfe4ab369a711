// Tests for the EMS emulation: command execution against devices, strict
// per-EMS serialization, latency profiles, retransmission dedup and alarm
// forwarding.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dwdm/muxponder.hpp"
#include "dwdm/roadm.hpp"
#include "dwdm/transponder.hpp"
#include "ems/ems_server.hpp"
#include "proto/client.hpp"

namespace griphon::ems {
namespace {

struct EmsFixture : ::testing::Test {
  EmsFixture()
      : chan(&engine, proto::ControlChannel::Params{}),
        server(&engine, &chan.b(), EmsLatencyProfile::testbed_2011(),
               "roadm-ems"),
        client(&engine, &chan.a(), client_params()),
        roadm(RoadmId{0}, NodeId{0}, dwdm::WavelengthGrid(40)),
        ot(TransponderId{0}, NodeId{0}, rates::k10G) {
    roadm.attach_degree(LinkId{0});
    roadm.attach_degree(LinkId{1});
    port = roadm.add_ports(1).front();
    server.manage_roadm(&roadm);
    server.manage_ot(&ot);
  }
  static proto::RequestClient::Params client_params() {
    proto::RequestClient::Params p;
    p.timeout = seconds(60);
    return p;
  }

  sim::Engine engine{7};
  proto::ControlChannel chan;
  EmsServer server;
  proto::RequestClient client;
  dwdm::Roadm roadm;
  dwdm::Transponder ot;
  PortId port;
};

TEST_F(EmsFixture, ExecutesCommandAgainstDevice) {
  std::optional<proto::Response> resp;
  client.request(proto::Message{proto::OtTune{TransponderId{0}, 5}},
                 [&](Result<proto::Response> r) { resp = r.value(); });
  engine.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->ok());
  EXPECT_EQ(ot.state(), dwdm::Transponder::State::kTuned);
  EXPECT_EQ(ot.channel(), 5);
}

TEST_F(EmsFixture, CommandLatencyMatchesProfile) {
  SimTime done{};
  client.request(proto::Message{proto::OtTune{TransponderId{0}, 5}},
                 [&](Result<proto::Response>) { done = engine.now(); });
  engine.run();
  // overhead (~0.8s) + laser tuning (~9s) + 2x channel latency.
  EXPECT_GT(done, seconds(8));
  EXPECT_LT(done, seconds(13));
}

TEST_F(EmsFixture, DeviceErrorsPropagateAsResponseCodes) {
  std::optional<proto::Response> resp;
  // Activating an idle OT violates its FSM.
  client.request(
      proto::Message{proto::OtSetState{TransponderId{0},
                                       proto::OtSetState::Action::kActivate}},
      [&](Result<proto::Response> r) { resp = r.value(); });
  engine.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(resp->ok());
  EXPECT_EQ(static_cast<ErrorCode>(resp->code), ErrorCode::kConflict);
}

TEST_F(EmsFixture, UnknownDeviceRejected) {
  std::optional<proto::Response> resp;
  client.request(proto::Message{proto::OtTune{TransponderId{42}, 5}},
                 [&](Result<proto::Response> r) { resp = r.value(); });
  engine.run();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(static_cast<ErrorCode>(resp->code), ErrorCode::kNotFound);
}

TEST_F(EmsFixture, CommandsAreSerialized) {
  // Two tune commands: the second must wait for the first (one craft
  // dialogue per EMS), so completion times differ by about a full command.
  std::vector<SimTime> done;
  for (int i = 0; i < 2; ++i)
    client.request(proto::Message{proto::OtTune{TransponderId{0}, 5 + i}},
                   [&](Result<proto::Response>) {
                     done.push_back(engine.now());
                   });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GT(done[1] - done[0], seconds(8));
  EXPECT_EQ(server.commands_executed(), 2u);
}

TEST_F(EmsFixture, RetransmissionAnsweredFromCache) {
  // Deliver the same frame twice (as a retrying client would): the command
  // must execute once, and both frames get answered.
  const proto::Bytes frame = proto::encode_frame(
      777, proto::Message{proto::OtTune{TransponderId{0}, 9}});
  int responses = 0;
  chan.a().on_receive([&](const proto::Bytes&) { ++responses; });
  chan.a().send(frame);
  engine.run();
  chan.a().send(frame);  // late retransmission
  engine.run();
  EXPECT_EQ(server.commands_executed(), 1u);
  EXPECT_EQ(responses, 2);
}

TEST_F(EmsFixture, DuplicateInQueueDropped) {
  const proto::Bytes frame = proto::encode_frame(
      888, proto::Message{proto::OtTune{TransponderId{0}, 9}});
  chan.a().send(frame);
  chan.a().send(frame);  // arrives while the first is still queued/running
  engine.run();
  EXPECT_EQ(server.commands_executed(), 1u);
}

TEST_F(EmsFixture, AlarmsForwardedToClientEvents) {
  std::vector<Alarm> alarms;
  client.on_event([&](const proto::Frame& f) {
    alarms.push_back(std::get<proto::AlarmEvent>(f.message).alarm);
  });
  // Configure a use on degree 0, then fail its link: LOS must arrive.
  std::optional<proto::Response> resp;
  client.request(
      proto::Message{proto::RoadmAddDrop{RoadmId{0}, port, 0, 3, true}},
      [&](Result<proto::Response> r) { resp = r.value(); });
  engine.run();
  ASSERT_TRUE(resp && resp->ok());
  roadm.on_link_failed(LinkId{0}, engine.now());
  engine.run();
  ASSERT_EQ(alarms.size(), 2u);  // degree OSC alarm + per-channel LOS
  EXPECT_EQ(alarms[0].type, AlarmType::kLos);
  EXPECT_EQ(alarms[0].link, LinkId{0});
  EXPECT_FALSE(alarms[0].channel.has_value());
  EXPECT_EQ(alarms[1].channel, 3);
}

TEST_F(EmsFixture, FastProfileIsMuchFaster) {
  // Same workflow under the §4 "fast hardware" profile.
  sim::Engine engine2{7};
  proto::ControlChannel chan2(&engine2, proto::ControlChannel::Params{});
  EmsServer fast(&engine2, &chan2.b(), EmsLatencyProfile::fast_hardware(),
                 "fast-ems");
  proto::RequestClient client2(&engine2, &chan2.a(), client_params());
  dwdm::Transponder ot2(TransponderId{0}, NodeId{0}, rates::k10G);
  fast.manage_ot(&ot2);
  SimTime done{};
  client2.request(proto::Message{proto::OtTune{TransponderId{0}, 5}},
                  [&](Result<proto::Response>) { done = engine2.now(); });
  engine2.run();
  EXPECT_LT(done, seconds(1));
}

TEST_F(EmsFixture, MalformedFrameIgnored) {
  chan.a().send(proto::Bytes{1, 2, 3});
  engine.run();
  EXPECT_EQ(server.commands_executed(), 0u);
}

/// NACKs the next `nacks` commands that leave the dialogue queue.
class NackNext : public EmsFaultHook {
 public:
  Status on_command(const std::string&, const proto::Message&) override {
    if (nacks == 0) return Status::success();
    --nacks;
    return Status{ErrorCode::kBusy, "injected"};
  }
  double latency_scale(const std::string&) override { return 1.0; }
  int nacks = 0;
};

TEST_F(EmsFixture, QueueDepthTracksEnqueueDispatchNackAndCrash) {
  NackNext hook;
  server.set_fault_hook(&hook);
  std::size_t responses = 0;
  chan.a().on_receive([&](const proto::Bytes&) { ++responses; });
  const auto send = [&](std::uint64_t id) {
    chan.a().send(proto::encode_frame(
        id, proto::Message{proto::OtTune{TransponderId{0}, 5}}));
  };
  const auto run_while = [&](const auto& pending) {
    while (pending()) engine.run_until(engine.now() + milliseconds(50));
  };
  EXPECT_EQ(server.queue_depth(), 0u);

  // Three commands to one element: the first dispatches, two wait.
  send(1);
  send(2);
  send(3);
  engine.run_until(seconds(1));
  EXPECT_EQ(server.queue_depth(), 2u);

  // The first completes and the second dispatches (and is NACKed).
  hook.nacks = 1;
  run_while([&] { return server.commands_executed() < 1; });
  EXPECT_EQ(server.queue_depth(), 1u);
  // The NACK ends that dialogue and the third dispatches.
  run_while([&] { return responses < 2; });
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.commands_executed(), 1u);

  // Two more wait behind the third; a crash drops them all.
  send(4);
  send(5);
  engine.run_until(engine.now() + seconds(1));
  EXPECT_EQ(server.queue_depth(), 2u);
  server.crash_restart(seconds(10));
  EXPECT_EQ(server.queue_depth(), 0u);
  engine.run();
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.commands_executed(), 1u);

  // After the restart the count starts from zero again.
  send(6);
  send(7);
  engine.run_until(engine.now() + seconds(1));
  EXPECT_EQ(server.queue_depth(), 1u);
  engine.run();
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.commands_executed(), 3u);
}

// --- Transcript pin ---------------------------------------------------------
//
// A few hundred commands over several elements through the full
// RequestClient <-> ControlChannel <-> EmsServer stack, under frame loss
// and duplication, injected NACKs and slow commands, one crash/restart and
// one response-cache shrink. Every response (request id, code, aux,
// completion time), periodic queue_depth() samples, the EMS counters and
// the final device state are folded into one transcript whose FNV-1a hash
// is pinned: any change to dispatch order, dedup, caching or timing shows.

/// Drops and duplicates frames from its own stream (not the engine's).
class TranscriptChannelFaults : public proto::ChannelFaultHook {
 public:
  explicit TranscriptChannelFaults(std::uint64_t seed) : rng_(seed) {}
  proto::FaultDecision on_frame() override {
    proto::FaultDecision d;
    d.drop = rng_.chance(0.03);
    d.duplicate = rng_.chance(0.06);
    if (rng_.chance(0.05)) d.extra_delay = milliseconds(700);
    return d;
  }

 private:
  Rng rng_;
};

/// NACKs and stretches commands from its own stream.
class TranscriptEmsFaults : public EmsFaultHook {
 public:
  explicit TranscriptEmsFaults(std::uint64_t seed) : rng_(seed) {}
  Status on_command(const std::string&, const proto::Message&) override {
    if (rng_.chance(0.06))
      return Status{ErrorCode::kBusy, "injected transient fault"};
    return Status::success();
  }
  double latency_scale(const std::string&) override {
    return rng_.chance(0.06) ? 3.0 : 1.0;
  }

 private:
  Rng rng_;
};

struct Transcript {
  std::string text;
  std::size_t responses = 0;
  std::size_t executed = 0;
  std::size_t evictions = 0;
  std::size_t max_depth = 0;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Transcript run_transcript(std::uint64_t seed) {
  constexpr int kCommands = 320;
  constexpr std::size_t kOts = 6;
  constexpr std::size_t kNtes = 2;
  sim::Engine engine{seed};
  proto::ControlChannel::Params cp;
  cp.latency = LatencyModel::fixed(milliseconds(40));
  cp.loss_probability = 0.02;
  proto::ControlChannel chan(&engine, cp);
  TranscriptChannelFaults channel_faults(seed * 31 + 1);
  chan.set_fault_hook(&channel_faults);
  EmsServer server(&engine, &chan.b(), EmsLatencyProfile::testbed_2011(),
                   "roadm-ems");
  TranscriptEmsFaults ems_faults(seed * 31 + 2);
  server.set_fault_hook(&ems_faults);
  proto::RequestClient::Params rp;
  rp.timeout = seconds(6);
  rp.max_attempts = 4;
  proto::RequestClient client(&engine, &chan.a(), rp);

  dwdm::Roadm roadm(RoadmId{0}, NodeId{0}, dwdm::WavelengthGrid(8));
  roadm.attach_degree(LinkId{0});
  roadm.attach_degree(LinkId{1});
  const std::vector<PortId> ports = roadm.add_ports(6);
  server.manage_roadm(&roadm);
  std::vector<std::unique_ptr<dwdm::Transponder>> ots;
  for (std::size_t i = 0; i < kOts; ++i) {
    ots.push_back(std::make_unique<dwdm::Transponder>(
        TransponderId{i}, NodeId{0}, rates::k10G));
    server.manage_ot(ots.back().get());
  }
  dwdm::Regenerator regen(RegenId{0}, NodeId{0}, rates::k10G);
  server.manage_regen(&regen);
  std::vector<std::unique_ptr<dwdm::Muxponder>> ntes;
  for (std::size_t i = 0; i < kNtes; ++i) {
    ntes.push_back(std::make_unique<dwdm::Muxponder>(
        MuxponderId{i}, CustomerId{1}, NodeId{0}));
    server.manage_nte(ntes.back().get());
  }

  Transcript out;
  std::ostringstream log;
  Rng gen(seed * 31 + 3);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(gen.uniform(0.0, static_cast<double>(n)));
  };
  const auto channel = [&] { return static_cast<std::int32_t>(pick(8)); };
  const auto next_message = [&]() -> proto::Message {
    const std::uint64_t ot = pick(kOts);
    switch (pick(9)) {
      case 0:
        return proto::OtTune{TransponderId{ot}, channel()};
      case 1:
        return proto::OtSetState{
            TransponderId{ot},
            static_cast<proto::OtSetState::Action>(pick(3))};
      case 2:
        return proto::RoadmAddDrop{RoadmId{0}, ports[pick(ports.size())],
                                   static_cast<std::int32_t>(pick(2)),
                                   channel(), pick(2) == 0};
      case 3:
        return proto::RoadmExpress{RoadmId{0}, channel(), 0, 1,
                                   pick(2) == 0};
      case 4:
        return proto::NtePort{MuxponderId{pick(kNtes)},
                              static_cast<std::uint32_t>(pick(4)),
                              pick(2) == 0};
      case 5:
        return proto::RegenEngage{RegenId{0}, channel(), channel(),
                                  pick(2) == 0};
      case 6: {
        proto::EmsBatch batch;
        for (std::int32_t ch = 0; ch < 3; ++ch)
          batch.items.push_back(proto::PowerBalance{LinkId{pick(2)}, ch});
        return batch;
      }
      case 7:
        return proto::OtnOp{};  // no OTN layer managed: kNotFound
      default:
        return proto::PowerBalance{LinkId{pick(4)}, channel()};
    }
  };

  std::vector<std::uint64_t> ids(kCommands, 0);
  SimTime at{};
  for (int k = 0; k < kCommands; ++k) {
    at += from_seconds(gen.exponential(1.5));
    engine.schedule_at(at, [&, k, message = next_message()]() {
      ids[static_cast<std::size_t>(k)] = client.request(
          message, [&, k](Result<proto::Response> r) {
            ++out.responses;
            const std::uint16_t code =
                r.ok() ? r.value().code
                       : static_cast<std::uint16_t>(r.error().code());
            log << "r " << ids[static_cast<std::size_t>(k)] << ' ' << code
                << ' ' << (r.ok() ? r.value().aux : 0) << ' '
                << engine.now().count() << '\n';
          });
    });
  }
  engine.schedule_at(at / 2, [&] { server.crash_restart(seconds(30)); });
  engine.schedule_at(at * 3 / 4,
                     [&] { server.set_response_cache_capacity(4); });
  for (SimTime t{}; t < at + seconds(120); t += seconds(5))
    engine.schedule_at(t, [&] {
      const std::size_t depth = server.queue_depth();
      out.max_depth = std::max(out.max_depth, depth);
      log << "q " << engine.now().count() << ' ' << depth << '\n';
    });
  engine.run();

  out.executed = server.commands_executed();
  out.evictions = server.cache_evictions();
  log << "x " << out.executed << ' ' << out.evictions << ' '
      << server.response_cache_size() << ' ' << server.queue_depth() << ' '
      << client.retransmissions() << ' ' << client.timeouts() << '\n';
  for (const auto& ot : ots)
    log << "ot " << static_cast<int>(ot->state()) << ' ' << ot->channel()
        << '\n';
  for (const auto& use : roadm.uses())
    log << "use " << use.degree << ' ' << use.channel << ' '
        << (use.is_express ? 1 : 0) << ' ' << use.port.value() << '\n';
  log << "regen " << (regen.in_use() ? 1 : 0) << '\n';
  for (const auto& nte : ntes) log << "nte " << nte->ports_in_use() << '\n';
  out.text = log.str();
  return out;
}

struct TranscriptGolden {
  std::uint64_t seed;
  std::size_t responses;
  std::size_t executed;
  std::size_t evictions;
  std::size_t max_depth;
  std::uint64_t hash;
};

TEST(EmsTranscript, PinnedUnderFaultsCrashAndCacheShrink) {
  // Generated from the ordered-map EmsServer (std::map queues, std::set
  // in-flight tracking, std::list LRU); the hashed element table and slab
  // LRU must reproduce it bit for bit.
  const TranscriptGolden golden[] = {
      {11, 320, 300, 142, 10, 4031208857009511614ull},
      {2024, 320, 304, 183, 5, 11240470486403778379ull},
  };
  for (const TranscriptGolden& g : golden) {
    const Transcript t = run_transcript(g.seed);
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    EXPECT_EQ(t.responses, g.responses);
    EXPECT_EQ(t.executed, g.executed);
    EXPECT_EQ(t.evictions, g.evictions);
    EXPECT_EQ(t.max_depth, g.max_depth);
    EXPECT_EQ(fnv1a(t.text), g.hash) << t.text.substr(0, 2000);
  }
}

}  // namespace
}  // namespace griphon::ems
