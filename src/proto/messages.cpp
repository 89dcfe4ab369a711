#include "proto/messages.hpp"

#include <cassert>

namespace griphon::proto {

namespace {

constexpr std::uint32_t kMagic = 0x47525048;  // "GRPH"
constexpr std::uint16_t kVersion = 1;

void put_id(ByteWriter& w, std::uint64_t v) { w.u64(v); }

template <typename IdT>
Result<IdT> get_id(ByteReader& r) {
  auto v = r.u64();
  if (!v.ok()) return v.error();
  return IdT{v.value()};
}

// --- per-message payload codecs ---------------------------------------

void encode(ByteWriter& w, const Response& m) {
  w.u16(m.code);
  w.str(m.message);
  w.u64(m.aux);
}
Result<Message> decode_response(ByteReader& r) {
  Response m;
  auto code = r.u16();
  if (!code.ok()) return code.error();
  m.code = code.value();
  auto msg = r.str();
  if (!msg.ok()) return msg.error();
  m.message = msg.value();
  auto aux = r.u64();
  if (!aux.ok()) return aux.error();
  m.aux = aux.value();
  return Message{m};
}

void encode(ByteWriter& w, const FxcConnect& m) {
  put_id(w, m.fxc.value());
  put_id(w, m.port_a.value());
  put_id(w, m.port_b.value());
}
Result<Message> decode_fxc_connect(ByteReader& r) {
  FxcConnect m;
  auto f = get_id<FxcId>(r);
  if (!f.ok()) return f.error();
  m.fxc = f.value();
  auto a = get_id<PortId>(r);
  if (!a.ok()) return a.error();
  m.port_a = a.value();
  auto b = get_id<PortId>(r);
  if (!b.ok()) return b.error();
  m.port_b = b.value();
  return Message{m};
}

void encode(ByteWriter& w, const FxcDisconnect& m) {
  put_id(w, m.fxc.value());
  put_id(w, m.port.value());
}
Result<Message> decode_fxc_disconnect(ByteReader& r) {
  FxcDisconnect m;
  auto f = get_id<FxcId>(r);
  if (!f.ok()) return f.error();
  m.fxc = f.value();
  auto p = get_id<PortId>(r);
  if (!p.ok()) return p.error();
  m.port = p.value();
  return Message{m};
}

void encode(ByteWriter& w, const RoadmExpress& m) {
  put_id(w, m.roadm.value());
  w.i32(m.channel);
  w.i32(m.degree_in);
  w.i32(m.degree_out);
  w.boolean(m.engage);
}
Result<Message> decode_roadm_express(ByteReader& r) {
  RoadmExpress m;
  auto id = get_id<RoadmId>(r);
  if (!id.ok()) return id.error();
  m.roadm = id.value();
  auto ch = r.i32();
  if (!ch.ok()) return ch.error();
  m.channel = ch.value();
  auto di = r.i32();
  if (!di.ok()) return di.error();
  m.degree_in = di.value();
  auto dout = r.i32();
  if (!dout.ok()) return dout.error();
  m.degree_out = dout.value();
  auto e = r.boolean();
  if (!e.ok()) return e.error();
  m.engage = e.value();
  return Message{m};
}

void encode(ByteWriter& w, const RoadmAddDrop& m) {
  put_id(w, m.roadm.value());
  put_id(w, m.port.value());
  w.i32(m.degree);
  w.i32(m.channel);
  w.boolean(m.engage);
}
Result<Message> decode_roadm_add_drop(ByteReader& r) {
  RoadmAddDrop m;
  auto id = get_id<RoadmId>(r);
  if (!id.ok()) return id.error();
  m.roadm = id.value();
  auto p = get_id<PortId>(r);
  if (!p.ok()) return p.error();
  m.port = p.value();
  auto d = r.i32();
  if (!d.ok()) return d.error();
  m.degree = d.value();
  auto ch = r.i32();
  if (!ch.ok()) return ch.error();
  m.channel = ch.value();
  auto e = r.boolean();
  if (!e.ok()) return e.error();
  m.engage = e.value();
  return Message{m};
}

void encode(ByteWriter& w, const OtTune& m) {
  put_id(w, m.ot.value());
  w.i32(m.channel);
}
Result<Message> decode_ot_tune(ByteReader& r) {
  OtTune m;
  auto id = get_id<TransponderId>(r);
  if (!id.ok()) return id.error();
  m.ot = id.value();
  auto ch = r.i32();
  if (!ch.ok()) return ch.error();
  m.channel = ch.value();
  return Message{m};
}

void encode(ByteWriter& w, const OtSetState& m) {
  put_id(w, m.ot.value());
  w.u8(static_cast<std::uint8_t>(m.action));
}
Result<Message> decode_ot_set_state(ByteReader& r) {
  OtSetState m;
  auto id = get_id<TransponderId>(r);
  if (!id.ok()) return id.error();
  m.ot = id.value();
  auto a = r.u8();
  if (!a.ok()) return a.error();
  if (a.value() > 2)
    return Error{ErrorCode::kInvalidArgument, "proto: bad OT action"};
  m.action = static_cast<OtSetState::Action>(a.value());
  return Message{m};
}

void encode(ByteWriter& w, const RegenEngage& m) {
  put_id(w, m.regen.value());
  w.i32(m.upstream_channel);
  w.i32(m.downstream_channel);
  w.boolean(m.engage);
}
Result<Message> decode_regen_engage(ByteReader& r) {
  RegenEngage m;
  auto id = get_id<RegenId>(r);
  if (!id.ok()) return id.error();
  m.regen = id.value();
  auto up = r.i32();
  if (!up.ok()) return up.error();
  m.upstream_channel = up.value();
  auto down = r.i32();
  if (!down.ok()) return down.error();
  m.downstream_channel = down.value();
  auto e = r.boolean();
  if (!e.ok()) return e.error();
  m.engage = e.value();
  return Message{m};
}

void encode(ByteWriter& w, const PowerBalance& m) {
  put_id(w, m.link.value());
  w.i32(m.channel);
}
Result<Message> decode_power_balance(ByteReader& r) {
  PowerBalance m;
  auto id = get_id<LinkId>(r);
  if (!id.ok()) return id.error();
  m.link = id.value();
  auto ch = r.i32();
  if (!ch.ok()) return ch.error();
  m.channel = ch.value();
  return Message{m};
}

void encode(ByteWriter& w, const OtnOp& m) {
  w.u8(static_cast<std::uint8_t>(m.op));
  put_id(w, m.customer.value());
  put_id(w, m.src.value());
  put_id(w, m.dst.value());
  w.i64(m.rate_bps);
  w.boolean(m.protect);
  put_id(w, m.circuit.value());
}
Result<Message> decode_otn_op(ByteReader& r) {
  OtnOp m;
  auto op = r.u8();
  if (!op.ok()) return op.error();
  if (op.value() > 3)
    return Error{ErrorCode::kInvalidArgument, "proto: bad OTN op"};
  m.op = static_cast<OtnOp::Op>(op.value());
  auto cust = get_id<CustomerId>(r);
  if (!cust.ok()) return cust.error();
  m.customer = cust.value();
  auto src = get_id<NodeId>(r);
  if (!src.ok()) return src.error();
  m.src = src.value();
  auto dst = get_id<NodeId>(r);
  if (!dst.ok()) return dst.error();
  m.dst = dst.value();
  auto rate = r.i64();
  if (!rate.ok()) return rate.error();
  m.rate_bps = rate.value();
  auto prot = r.boolean();
  if (!prot.ok()) return prot.error();
  m.protect = prot.value();
  auto ct = get_id<OduCircuitId>(r);
  if (!ct.ok()) return ct.error();
  m.circuit = ct.value();
  return Message{m};
}

void encode(ByteWriter& w, const NtePort& m) {
  put_id(w, m.nte.value());
  w.u32(m.port);
  w.boolean(m.engage);
}
Result<Message> decode_nte_port(ByteReader& r) {
  NtePort m;
  auto id = get_id<MuxponderId>(r);
  if (!id.ok()) return id.error();
  m.nte = id.value();
  auto p = r.u32();
  if (!p.ok()) return p.error();
  m.port = p.value();
  auto e = r.boolean();
  if (!e.ok()) return e.error();
  m.engage = e.value();
  return Message{m};
}

void encode(ByteWriter& w, const EmsBatch& m) {
  w.u32(static_cast<std::uint32_t>(m.items.size()));
  for (const PowerBalance& item : m.items) {
    const Bytes frame = encode_frame(0, Message{item});
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.raw(frame);
  }
}
Result<Message> decode_ems_batch(ByteReader& r) {
  EmsBatch m;
  auto count = r.u32();
  if (!count.ok()) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto len = r.u32();
    if (!len.ok()) return len.error();
    auto bytes = r.raw(len.value());
    if (!bytes.ok()) return bytes.error();
    auto frame = decode_frame(bytes.value());
    if (!frame.ok()) return frame.error();
    const auto* item = std::get_if<PowerBalance>(&frame.value().message);
    if (item == nullptr)
      return Error{ErrorCode::kInvalidArgument,
                   "proto: batch item is not a power balance"};
    m.items.push_back(*item);
  }
  return Message{std::move(m)};
}

void encode(ByteWriter& w, const AlarmEvent& m) {
  const Alarm& a = m.alarm;
  put_id(w, a.id.value());
  w.u8(static_cast<std::uint8_t>(a.type));
  w.i64(a.raised_at.count());
  w.str(a.source);
  w.boolean(a.node.has_value());
  put_id(w, a.node ? a.node->value() : 0);
  w.boolean(a.link.has_value());
  put_id(w, a.link ? a.link->value() : 0);
  w.boolean(a.channel.has_value());
  w.i32(a.channel.value_or(0));
  w.boolean(a.connection.has_value());
  put_id(w, a.connection ? a.connection->value() : 0);
  w.str(a.detail);
}
Result<Message> decode_alarm_event(ByteReader& r) {
  AlarmEvent m;
  Alarm& a = m.alarm;
  auto id = get_id<AlarmId>(r);
  if (!id.ok()) return id.error();
  a.id = id.value();
  auto ty = r.u8();
  if (!ty.ok()) return ty.error();
  if (ty.value() > static_cast<std::uint8_t>(AlarmType::kEmsRestart))
    return Error{ErrorCode::kInvalidArgument, "proto: bad alarm type"};
  a.type = static_cast<AlarmType>(ty.value());
  auto at = r.i64();
  if (!at.ok()) return at.error();
  a.raised_at = SimTime{at.value()};
  auto src = r.str();
  if (!src.ok()) return src.error();
  a.source = src.value();
  auto read_opt = [&](auto& out, auto make) -> Status {
    auto has = r.boolean();
    if (!has.ok()) return has.error();
    auto v = r.u64();
    if (!v.ok()) return v.error();
    if (has.value()) out = make(v.value());
    return Status::success();
  };
  if (auto s = read_opt(a.node, [](std::uint64_t v) { return NodeId{v}; });
      !s.ok())
    return s.error();
  if (auto s = read_opt(a.link, [](std::uint64_t v) { return LinkId{v}; });
      !s.ok())
    return s.error();
  auto has_ch = r.boolean();
  if (!has_ch.ok()) return has_ch.error();
  auto ch = r.i32();
  if (!ch.ok()) return ch.error();
  if (has_ch.value()) a.channel = ch.value();
  if (auto s = read_opt(a.connection,
                        [](std::uint64_t v) { return ConnectionId{v}; });
      !s.ok())
    return s.error();
  auto det = r.str();
  if (!det.ok()) return det.error();
  a.detail = det.value();
  return Message{m};
}

}  // namespace

MessageType type_of(const Message& m) noexcept {
  struct Visitor {
    MessageType operator()(const Response&) { return MessageType::kResponse; }
    MessageType operator()(const FxcConnect&) {
      return MessageType::kFxcConnect;
    }
    MessageType operator()(const FxcDisconnect&) {
      return MessageType::kFxcDisconnect;
    }
    MessageType operator()(const RoadmExpress&) {
      return MessageType::kRoadmExpress;
    }
    MessageType operator()(const RoadmAddDrop&) {
      return MessageType::kRoadmAddDrop;
    }
    MessageType operator()(const OtTune&) { return MessageType::kOtTune; }
    MessageType operator()(const OtSetState&) {
      return MessageType::kOtSetState;
    }
    MessageType operator()(const RegenEngage&) {
      return MessageType::kRegenEngage;
    }
    MessageType operator()(const PowerBalance&) {
      return MessageType::kPowerBalance;
    }
    MessageType operator()(const OtnOp&) { return MessageType::kOtnOp; }
    MessageType operator()(const NtePort&) { return MessageType::kNtePort; }
    MessageType operator()(const AlarmEvent&) {
      return MessageType::kAlarmEvent;
    }
    MessageType operator()(const EmsBatch&) { return MessageType::kEmsBatch; }
  };
  return std::visit(Visitor{}, m);
}

const char* name_of(MessageType t) noexcept {
  switch (t) {
    case MessageType::kResponse:
      return "response";
    case MessageType::kFxcConnect:
      return "fxc-connect";
    case MessageType::kFxcDisconnect:
      return "fxc-disconnect";
    case MessageType::kRoadmExpress:
      return "roadm-express";
    case MessageType::kRoadmAddDrop:
      return "roadm-add-drop";
    case MessageType::kOtTune:
      return "ot-tune";
    case MessageType::kOtSetState:
      return "ot-set-state";
    case MessageType::kRegenEngage:
      return "regen-engage";
    case MessageType::kPowerBalance:
      return "power-balance";
    case MessageType::kOtnOp:
      return "otn-op";
    case MessageType::kNtePort:
      return "nte-port";
    case MessageType::kAlarmEvent:
      return "alarm-event";
    case MessageType::kEmsBatch:
      return "ems-batch";
  }
  return "?";
}

std::uint64_t element_key(const Message& m) {
  struct Visitor {
    std::uint64_t operator()(const Response&) { return 0; }
    std::uint64_t operator()(const AlarmEvent&) { return 0; }
    std::uint64_t operator()(const FxcConnect& v) {
      return (1ull << 56) | v.fxc.value();
    }
    std::uint64_t operator()(const FxcDisconnect& v) {
      return (1ull << 56) | v.fxc.value();
    }
    std::uint64_t operator()(const RoadmExpress& v) {
      return (2ull << 56) | v.roadm.value();
    }
    std::uint64_t operator()(const RoadmAddDrop& v) {
      return (2ull << 56) | v.roadm.value();
    }
    std::uint64_t operator()(const OtTune& v) {
      return (3ull << 56) | v.ot.value();
    }
    std::uint64_t operator()(const OtSetState& v) {
      return (3ull << 56) | v.ot.value();
    }
    std::uint64_t operator()(const RegenEngage& v) {
      return (4ull << 56) | v.regen.value();
    }
    std::uint64_t operator()(const PowerBalance& v) {
      // The line system of one link is the shared element being retrimmed.
      return (5ull << 56) | v.link.value();
    }
    std::uint64_t operator()(const OtnOp&) { return 6ull << 56; }
    std::uint64_t operator()(const NtePort& v) {
      return (7ull << 56) | v.nte.value();
    }
    std::uint64_t operator()(const EmsBatch& v) {
      // A batch dialogues with the line system shared by its items; key it
      // off the first item's link so batches over disjoint elements
      // interleave.
      if (v.items.empty()) return 8ull << 56;
      return (8ull << 56) | (v.items.front().link.value() & ((1ull << 56) - 1));
    }
  };
  return std::visit(Visitor{}, m);
}

Bytes encode_frame(std::uint64_t request_id, const Message& m) {
  // Header and payload go into one buffer; the payload length is patched
  // in once the payload is written. 64 bytes hold every single command.
  ByteWriter frame;
  frame.reserve(64);
  frame.u32(kMagic);
  frame.u16(kVersion);
  frame.u16(static_cast<std::uint16_t>(type_of(m)));
  frame.u64(request_id);
  const std::size_t length_at = frame.size();
  frame.u32(0);
  const std::size_t payload_at = frame.size();
  std::visit([&](const auto& msg) { encode(frame, msg); }, m);
  frame.patch_u32(length_at,
                  static_cast<std::uint32_t>(frame.size() - payload_at));
  return frame.take();
}

Result<Frame> decode_frame(const Bytes& bytes) {
  ByteReader r(bytes);
  auto magic = r.u32();
  if (!magic.ok() || magic.value() != kMagic)
    return Error{ErrorCode::kInvalidArgument, "proto: bad magic"};
  auto version = r.u16();
  if (!version.ok() || version.value() != kVersion)
    return Error{ErrorCode::kInvalidArgument, "proto: bad version"};
  auto type = r.u16();
  if (!type.ok()) return type.error();
  auto request_id = r.u64();
  if (!request_id.ok()) return request_id.error();
  auto len = r.u32();
  if (!len.ok()) return len.error();
  if (r.remaining() != len.value())
    return Error{ErrorCode::kInvalidArgument, "proto: length mismatch"};

  Result<Message> msg = [&]() -> Result<Message> {
    switch (static_cast<MessageType>(type.value())) {
      case MessageType::kResponse:
        return decode_response(r);
      case MessageType::kFxcConnect:
        return decode_fxc_connect(r);
      case MessageType::kFxcDisconnect:
        return decode_fxc_disconnect(r);
      case MessageType::kRoadmExpress:
        return decode_roadm_express(r);
      case MessageType::kRoadmAddDrop:
        return decode_roadm_add_drop(r);
      case MessageType::kOtTune:
        return decode_ot_tune(r);
      case MessageType::kOtSetState:
        return decode_ot_set_state(r);
      case MessageType::kRegenEngage:
        return decode_regen_engage(r);
      case MessageType::kPowerBalance:
        return decode_power_balance(r);
      case MessageType::kOtnOp:
        return decode_otn_op(r);
      case MessageType::kNtePort:
        return decode_nte_port(r);
      case MessageType::kAlarmEvent:
        return decode_alarm_event(r);
      case MessageType::kEmsBatch:
        return decode_ems_batch(r);
    }
    return Error{ErrorCode::kInvalidArgument, "proto: unknown message type"};
  }();
  if (!msg.ok()) return msg.error();
  if (!r.exhausted())
    return Error{ErrorCode::kInvalidArgument, "proto: trailing bytes"};
  return Frame{request_id.value(), std::move(msg).value()};
}

}  // namespace griphon::proto
