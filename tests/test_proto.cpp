// Tests for the control protocol: byte-level codecs, frame round-trips for
// every message type, malformed-frame rejection, the simulated channel and
// the retrying request client.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "proto/channel.hpp"
#include "proto/client.hpp"
#include "proto/messages.hpp"
#include "proto/wire.hpp"
#include "sim/engine.hpp"

namespace griphon::proto {
namespace {

TEST(Wire, IntegerRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1'000'000'000'000);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32().value(), -42);
  EXPECT_EQ(r.i64().value(), -1'000'000'000'000);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, BigEndianOnTheWire) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Wire, StringAndDoubleAndBool) {
  ByteWriter w;
  w.str("griphon");
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str().value(), "griphon");
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_TRUE(r.boolean().value());
  EXPECT_FALSE(r.boolean().value());
}

TEST(Wire, FixedWidthIntegersAreBigEndianAfterEarlierBytes) {
  ByteWriter w;
  w.u8(0xFF);
  w.u16(0x0102);
  w.u64(0x030405060708090Aull);
  EXPECT_EQ(w.bytes(), (Bytes{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(Wire, StringLongerThanTheLengthPrefixIsRefused) {
  ByteWriter w;
  w.u8(7);
  const std::string longest(ByteWriter::kMaxString, 'x');
  w.str(longest);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8().value(), 7);
  EXPECT_EQ(r.str().value(), longest);
  EXPECT_TRUE(r.exhausted());

  // One byte more cannot be framed: the writer refuses it and leaves the
  // buffer as it was, instead of writing a wrapped length.
  const std::size_t before = w.size();
  EXPECT_THROW(w.str(std::string(ByteWriter::kMaxString + 1, 'y')),
               std::length_error);
  EXPECT_EQ(w.size(), before);
}

TEST(Wire, TruncatedReadsFail) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.u32().ok());
  ByteReader r2(w.bytes());
  EXPECT_TRUE(r2.u16().ok());
  EXPECT_FALSE(r2.u8().ok());
}

TEST(Wire, BadBooleanRejected) {
  ByteWriter w;
  w.u8(2);
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.boolean().ok());
}

TEST(Wire, TruncatedStringFails) {
  ByteWriter w;
  w.u16(10);  // claims 10 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.str().ok());
}

// --- frame round-trips over the whole message corpus -----------------------

std::vector<Message> message_corpus() {
  std::vector<Message> out;
  out.push_back(Response{0, "", 17});
  out.push_back(Response{static_cast<std::uint16_t>(ErrorCode::kBusy),
                         "port busy", 0});
  out.push_back(FxcConnect{FxcId{3}, PortId{1}, PortId{9}});
  out.push_back(FxcDisconnect{FxcId{3}, PortId{1}});
  out.push_back(RoadmExpress{RoadmId{2}, 14, 0, 2, true});
  out.push_back(RoadmExpress{RoadmId{2}, 14, 0, 2, false});
  out.push_back(RoadmAddDrop{RoadmId{1}, PortId{6}, 1, 33, true});
  out.push_back(OtTune{TransponderId{8}, 21});
  out.push_back(OtSetState{TransponderId{8}, OtSetState::Action::kDeactivate});
  out.push_back(RegenEngage{RegenId{4}, 5, 9, true});
  out.push_back(PowerBalance{LinkId{12}, 7});
  OtnOp create;
  create.op = OtnOp::Op::kCreate;
  create.customer = CustomerId{2};
  create.src = NodeId{1};
  create.dst = NodeId{3};
  create.rate_bps = rates::k1G.in_bps();
  create.protect = true;
  out.push_back(create);
  OtnOp release;
  release.op = OtnOp::Op::kRelease;
  release.circuit = OduCircuitId{77};
  out.push_back(release);
  out.push_back(NtePort{MuxponderId{1}, 3, true});
  Alarm alarm;
  alarm.id = AlarmId{5};
  alarm.type = AlarmType::kLos;
  alarm.raised_at = seconds(42);
  alarm.source = "roadm/2";
  alarm.node = NodeId{2};
  alarm.link = LinkId{4};
  alarm.channel = 11;
  alarm.detail = "express";
  out.push_back(AlarmEvent{alarm});
  Alarm bare;
  bare.id = AlarmId{6};
  bare.type = AlarmType::kClear;
  bare.source = "roadm/3";
  out.push_back(AlarmEvent{bare});
  EmsBatch batch;
  batch.items.push_back(PowerBalance{LinkId{12}, 7});
  batch.items.push_back(PowerBalance{LinkId{12}, 8});
  out.push_back(batch);
  return out;
}

class FrameRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameRoundTrip, EncodeDecodeIdentity) {
  const Message original = message_corpus()[GetParam()];
  const Bytes bytes = encode_frame(/*request_id=*/991, original);
  const auto frame = decode_frame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().request_id, 991u);
  EXPECT_EQ(type_of(frame.value().message), type_of(original));

  // Spot-check payload fidelity per type.
  if (const auto* m = std::get_if<RoadmExpress>(&original)) {
    const auto& d = std::get<RoadmExpress>(frame.value().message);
    EXPECT_EQ(d.roadm, m->roadm);
    EXPECT_EQ(d.channel, m->channel);
    EXPECT_EQ(d.degree_in, m->degree_in);
    EXPECT_EQ(d.degree_out, m->degree_out);
    EXPECT_EQ(d.engage, m->engage);
  }
  if (const auto* m = std::get_if<OtnOp>(&original)) {
    const auto& d = std::get<OtnOp>(frame.value().message);
    EXPECT_EQ(d.op, m->op);
    EXPECT_EQ(d.customer, m->customer);
    EXPECT_EQ(d.rate_bps, m->rate_bps);
    EXPECT_EQ(d.protect, m->protect);
    EXPECT_EQ(d.circuit, m->circuit);
  }
  if (const auto* m = std::get_if<AlarmEvent>(&original)) {
    const auto& d = std::get<AlarmEvent>(frame.value().message);
    EXPECT_EQ(d.alarm.type, m->alarm.type);
    EXPECT_EQ(d.alarm.source, m->alarm.source);
    EXPECT_EQ(d.alarm.link, m->alarm.link);
    EXPECT_EQ(d.alarm.channel, m->alarm.channel);
    EXPECT_EQ(d.alarm.raised_at, m->alarm.raised_at);
  }
  if (const auto* m = std::get_if<Response>(&original)) {
    const auto& d = std::get<Response>(frame.value().message);
    EXPECT_EQ(d.code, m->code);
    EXPECT_EQ(d.message, m->message);
    EXPECT_EQ(d.aux, m->aux);
  }
  if (const auto* m = std::get_if<EmsBatch>(&original)) {
    const auto& d = std::get<EmsBatch>(frame.value().message);
    ASSERT_EQ(d.items.size(), m->items.size());
    for (std::size_t i = 0; i < d.items.size(); ++i) {
      EXPECT_EQ(d.items[i].link, m->items[i].link);
      EXPECT_EQ(d.items[i].channel, m->items[i].channel);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FrameRoundTrip,
    ::testing::Range<std::size_t>(0, message_corpus().size()));

std::string hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// The wire bytes of every corpus frame under request id 991, pinned so a
// change to the encoder cannot alter the format unnoticed (a round trip
// alone would accept a symmetric change to encoder and decoder).
const char* const kCorpusWire[] = {
    "475250480001000100000000000003df0000000c000000000000000000000011",
    "475250480001000100000000000003df0000001500040009706f727420627573"
    "790000000000000000",
    "475250480001000a00000000000003df00000018000000000000000300000000"
    "000000010000000000000009",
    "475250480001000b00000000000003df00000010000000000000000300000000"
    "00000001",
    "475250480001001400000000000003df0000001500000000000000020000000e"
    "000000000000000201",
    "475250480001001400000000000003df0000001500000000000000020000000e"
    "000000000000000200",
    "475250480001001500000000000003df00000019000000000000000100000000"
    "00000006000000010000002101",
    "475250480001001e00000000000003df0000000c000000000000000800000015",
    "475250480001001f00000000000003df00000009000000000000000801",
    "475250480001002000000000000003df00000011000000000000000400000005"
    "0000000901",
    "475250480001002800000000000003df0000000c000000000000000c00000007",
    "475250480001003200000000000003df0000002a000000000000000002000000"
    "00000000010000000000000003000000003b9aca0001ffffffffffffffff",
    "475250480001003200000000000003df0000002a01ffffffffffffffffffffff"
    "ffffffffffffffffffffffffff000000000000000000000000000000004d",
    "475250480001003c00000000000003df0000000d000000000000000100000003"
    "01",
    "475250480001004600000000000003df00000043000000000000000500000000"
    "000280de800007726f61646d2f32010000000000000002010000000000000004"
    "010000000b000000000000000000000765787072657373",
    "475250480001004600000000000003df0000003c000000000000000604000000"
    "00000000000007726f61646d2f33000000000000000000000000000000000000"
    "00000000000000000000000000000000",
    "475250480001005000000000000003df0000004c000000020000002047525048"
    "0001002800000000000000000000000c000000000000000c0000000700000020"
    "475250480001002800000000000000000000000c000000000000000c00000008",
};

TEST(Frame, CorpusWireBytesArePinned) {
  const std::vector<Message> corpus = message_corpus();
  ASSERT_EQ(corpus.size(), std::size(kCorpusWire));
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(hex(encode_frame(991, corpus[i])), kCorpusWire[i])
        << "corpus entry " << i;
}

TEST(Frame, RejectsBadMagic) {
  Bytes b = encode_frame(1, Message{PowerBalance{LinkId{1}, 2}});
  b[0] ^= 0xFF;
  EXPECT_FALSE(decode_frame(b).ok());
}

TEST(Frame, RejectsBadVersion) {
  Bytes b = encode_frame(1, Message{PowerBalance{LinkId{1}, 2}});
  b[5] = 9;
  EXPECT_FALSE(decode_frame(b).ok());
}

TEST(Frame, RejectsLengthMismatch) {
  Bytes b = encode_frame(1, Message{PowerBalance{LinkId{1}, 2}});
  b.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode_frame(b).ok());
}

TEST(Frame, RejectsUnknownType) {
  Bytes b = encode_frame(1, Message{PowerBalance{LinkId{1}, 2}});
  b[6] = 0x7F;
  b[7] = 0x7F;
  EXPECT_FALSE(decode_frame(b).ok());
}

TEST(Frame, RejectsBatchItemThatIsNotAPowerBalance) {
  // Only stateless power balancing may be coalesced: turn the one item of
  // a well-formed batch into an OtTune (same 12-byte payload) by patching
  // the nested frame's type field. Outer header 20 bytes, item count 4,
  // item length 4, nested magic 4 + version 2: the type sits at 34.
  EmsBatch batch;
  batch.items.push_back(PowerBalance{LinkId{12}, 7});
  Bytes b = encode_frame(1, Message{batch});
  ASSERT_TRUE(decode_frame(b).ok());
  ASSERT_EQ(b[34], 0x00);
  ASSERT_EQ(b[35], static_cast<std::uint8_t>(MessageType::kPowerBalance));
  b[35] = static_cast<std::uint8_t>(MessageType::kOtTune);
  const auto frame = decode_frame(b);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.error().message().find("not a power balance"),
            std::string::npos);
}

TEST(Frame, RejectsTruncatedPayload) {
  Bytes b = encode_frame(1, Message{OtTune{TransponderId{1}, 5}});
  b.resize(b.size() - 2);
  EXPECT_FALSE(decode_frame(b).ok());
}

// --- channel ---------------------------------------------------------------

TEST(Channel, DeliversWithLatency) {
  sim::Engine engine;
  ControlChannel::Params params;
  params.latency = LatencyModel::fixed(milliseconds(7));
  ControlChannel chan(&engine, params);
  std::vector<SimTime> delivered;
  chan.b().on_receive([&](const Bytes&) { delivered.push_back(engine.now()); });
  chan.a().send(Bytes{1, 2, 3});
  engine.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], milliseconds(7));
  EXPECT_EQ(chan.frames_sent(), 1u);
}

TEST(Channel, BothDirectionsWork) {
  sim::Engine engine;
  ControlChannel chan(&engine, ControlChannel::Params{});
  int a_got = 0, b_got = 0;
  chan.a().on_receive([&](const Bytes&) { ++a_got; });
  chan.b().on_receive([&](const Bytes&) { ++b_got; });
  chan.a().send(Bytes{1});
  chan.b().send(Bytes{2});
  engine.run();
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
}

TEST(Channel, LossDropsFrames) {
  sim::Engine engine(3);
  ControlChannel::Params params;
  params.loss_probability = 1.0;
  ControlChannel chan(&engine, params);
  int got = 0;
  chan.b().on_receive([&](const Bytes&) { ++got; });
  chan.a().send(Bytes{1});
  engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(chan.frames_dropped(), 1u);
}

TEST(Channel, FifoEvenWithJitter) {
  sim::Engine engine(11);
  ControlChannel::Params params;
  params.latency = LatencyModel::normal(milliseconds(1), milliseconds(5),
                                        milliseconds(5));
  ControlChannel chan(&engine, params);
  std::vector<int> order;
  chan.b().on_receive([&](const Bytes& b) { order.push_back(b[0]); });
  for (int i = 0; i < 20; ++i)
    chan.a().send(Bytes{static_cast<std::uint8_t>(i)});
  engine.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// --- request client ---------------------------------------------------------

/// Minimal echo server used to exercise the client.
struct EchoServer {
  explicit EchoServer(Endpoint* ep) : ep_(ep) {
    ep_->on_receive([this](const Bytes& b) {
      ++requests;
      if (mute) return;
      const auto f = decode_frame(b);
      ASSERT_TRUE(f.ok());
      Response r;
      r.aux = f.value().request_id;
      ep_->send(encode_frame(f.value().request_id, Message{r}));
    });
  }
  Endpoint* ep_;
  int requests = 0;
  bool mute = false;
};

TEST(RequestClient, CorrelatesResponse) {
  sim::Engine engine;
  ControlChannel chan(&engine, ControlChannel::Params{});
  RequestClient client(&engine, &chan.a(), RequestClient::Params{});
  EchoServer server(&chan.b());
  std::optional<Response> got;
  client.request(Message{OtTune{TransponderId{1}, 4}},
                 [&](Result<Response> r) {
                   ASSERT_TRUE(r.ok());
                   got = r.value();
                 });
  engine.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_EQ(client.pending(), 0u);
}

TEST(RequestClient, RetriesOnLossAndRecovers) {
  sim::Engine engine(5);
  ControlChannel::Params cp;
  cp.loss_probability = 0.3;
  ControlChannel chan(&engine, cp);
  RequestClient::Params rp;
  rp.timeout = milliseconds(100);
  rp.max_attempts = 15;
  RequestClient client(&engine, &chan.a(), rp);
  EchoServer server(&chan.b());
  int completed = 0;
  for (int i = 0; i < 20; ++i)
    client.request(Message{PowerBalance{LinkId{1}, i}},
                   [&](Result<Response> r) {
                     EXPECT_TRUE(r.ok());
                     ++completed;
                   });
  engine.run();
  EXPECT_EQ(completed, 20);
}

TEST(RequestClient, TimesOutWhenServerSilent) {
  sim::Engine engine;
  ControlChannel chan(&engine, ControlChannel::Params{});
  RequestClient::Params rp;
  rp.timeout = milliseconds(50);
  rp.max_attempts = 3;
  RequestClient client(&engine, &chan.a(), rp);
  EchoServer server(&chan.b());
  server.mute = true;
  std::optional<Error> err;
  client.request(Message{OtTune{TransponderId{1}, 4}},
                 [&](Result<Response> r) {
                   ASSERT_FALSE(r.ok());
                   err = r.error();
                 });
  engine.run();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), ErrorCode::kTimeout);
  EXPECT_EQ(server.requests, 3);  // original + 2 retries
  EXPECT_EQ(client.timeouts(), 1u);
}

TEST(RequestClient, UnsolicitedFramesGoToEventHandler) {
  sim::Engine engine;
  ControlChannel chan(&engine, ControlChannel::Params{});
  RequestClient client(&engine, &chan.a(), RequestClient::Params{});
  std::optional<Frame> event;
  client.on_event([&](const Frame& f) { event = f; });
  Alarm alarm;
  alarm.id = AlarmId{1};
  alarm.source = "roadm/9";
  chan.b().send(encode_frame(0, Message{AlarmEvent{alarm}}));
  engine.run();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(type_of(event->message), MessageType::kAlarmEvent);
}

TEST(RequestClient, ManyOutstandingRequestsCorrelateCorrectly) {
  sim::Engine engine;
  ControlChannel chan(&engine, ControlChannel::Params{});
  RequestClient client(&engine, &chan.a(), RequestClient::Params{});
  EchoServer server(&chan.b());
  // The echo server returns the request id in aux: check 1:1 mapping.
  std::vector<std::uint64_t> aux_seen;
  for (int i = 0; i < 10; ++i)
    client.request(Message{PowerBalance{LinkId{1}, i}},
                   [&](Result<Response> r) {
                     aux_seen.push_back(r.value().aux);
                   });
  engine.run();
  ASSERT_EQ(aux_seen.size(), 10u);
  std::set<std::uint64_t> unique(aux_seen.begin(), aux_seen.end());
  EXPECT_EQ(unique.size(), 10u);
}

}  // namespace
}  // namespace griphon::proto
