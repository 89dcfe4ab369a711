// Controller <-> EMS message set.
//
// One request message per element-management operation the GRIPhoN
// controller performs during connection setup/teardown/restoration, plus a
// generic Response and the unsolicited AlarmEvent. Messages travel inside
// a fixed frame header (magic, version, type, request id, length) so that
// a stream can be parsed without knowing the payload type in advance.
#pragma once

#include <optional>
#include <string>
#include <variant>

#include "common/alarm.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "proto/wire.hpp"

namespace griphon::proto {

enum class MessageType : std::uint16_t {
  kResponse = 1,
  kFxcConnect = 10,
  kFxcDisconnect = 11,
  kRoadmExpress = 20,
  kRoadmAddDrop = 21,
  kOtTune = 30,
  kOtSetState = 31,
  kRegenEngage = 32,
  kPowerBalance = 40,
  kOtnOp = 50,
  kNtePort = 60,
  kAlarmEvent = 70,
  kEmsBatch = 80,
};

// --- requests ------------------------------------------------------------

struct FxcConnect {
  FxcId fxc;
  PortId port_a;
  PortId port_b;
};

struct FxcDisconnect {
  FxcId fxc;
  PortId port;
};

struct RoadmExpress {
  RoadmId roadm;
  std::int32_t channel = 0;
  std::int32_t degree_in = 0;
  std::int32_t degree_out = 0;
  bool engage = true;  ///< false = release
};

struct RoadmAddDrop {
  RoadmId roadm;
  PortId port;
  std::int32_t degree = 0;
  std::int32_t channel = 0;
  bool engage = true;
};

struct OtTune {
  TransponderId ot;
  std::int32_t channel = 0;
};

struct OtSetState {
  enum class Action : std::uint8_t { kActivate = 0, kDeactivate = 1,
                                     kReset = 2 };
  TransponderId ot;
  Action action = Action::kActivate;
};

struct RegenEngage {
  RegenId regen;
  std::int32_t upstream_channel = 0;
  std::int32_t downstream_channel = 0;
  bool engage = true;
};

/// Optical task on one line segment: amplifier power balancing and link
/// equalization after a channel is added/removed. This is the per-hop cost
/// that makes Table 2's times grow with path length.
struct PowerBalance {
  LinkId link;
  std::int32_t channel = 0;
};

/// Operation forwarded to the OTN switch EMS.
struct OtnOp {
  enum class Op : std::uint8_t {
    kCreate = 0,
    kRelease = 1,
    kActivateBackup = 2,
    kRevert = 3,
  };
  Op op = Op::kCreate;
  // kCreate fields:
  CustomerId customer;
  NodeId src;
  NodeId dst;
  std::int64_t rate_bps = 0;
  bool protect = false;
  // other ops:
  OduCircuitId circuit;
};

/// NTE (muxponder) client-port configuration at the customer premises.
struct NtePort {
  MuxponderId nte;
  std::uint32_t port = 0;
  bool engage = true;
};

/// Several power-balancing commands coalesced into one management
/// dialogue. The EMS pays one management overhead for the whole batch and
/// runs the items' optical tasks concurrently; the aggregated Response
/// carries the first item error (success otherwise). Only commands without
/// device state are safe to coalesce, since a batch retried after a
/// timeout replays or re-executes as one unit — and power balancing is the
/// only one. On the wire each item is a length-prefixed frame of its own
/// (request id 0 — correlation rides the batch's id); the decoder rejects
/// an item that is not a power balance.
struct EmsBatch {
  std::vector<PowerBalance> items;
};

// --- response & events ----------------------------------------------------

struct Response {
  std::uint16_t code = 0;  ///< ErrorCode as integer; 0 == success
  std::string message;
  std::uint64_t aux = 0;  ///< operation-specific (e.g. created circuit id)

  [[nodiscard]] bool ok() const noexcept { return code == 0; }
};

struct AlarmEvent {
  Alarm alarm;
};

using Message =
    std::variant<Response, FxcConnect, FxcDisconnect, RoadmExpress,
                 RoadmAddDrop, OtTune, OtSetState, RegenEngage, PowerBalance,
                 OtnOp, NtePort, AlarmEvent, EmsBatch>;

[[nodiscard]] MessageType type_of(const Message& m) noexcept;
[[nodiscard]] const char* name_of(MessageType t) noexcept;

/// Which managed element a command dialogues with: the EMS serializes
/// dialogues per element, and the controller's DAG executor uses the same
/// key to order same-element commands by construction. High byte is a
/// device-type tag so ids of different device families never collide.
/// Responses/alarms (and batches, which address the shared line system of
/// their first item) key as documented in the implementation.
[[nodiscard]] std::uint64_t element_key(const Message& m);

/// A parsed frame: correlation id + payload.
struct Frame {
  std::uint64_t request_id = 0;
  Message message;
};

/// Serialize a frame (header + payload).
[[nodiscard]] Bytes encode_frame(std::uint64_t request_id, const Message& m);
/// Parse a frame; fails on bad magic/version/type or truncated payload.
[[nodiscard]] Result<Frame> decode_frame(const Bytes& bytes);

}  // namespace griphon::proto
