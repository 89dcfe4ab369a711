// Element Management System (EMS) emulation.
//
// One EmsServer stands in for a vendor EMS (ROADM EMS, OTN switch EMS, FXC
// controller, NTE controller — paper §2.2). It terminates the control
// protocol, executes commands against the device models it manages, and
// forwards device alarms to the controller as unsolicited events.
//
// Realism constraints that matter for the reproduced numbers:
//  * commands are executed strictly one at a time per EMS (vendor EMSs
//    serialize element dialogues) — a queued command waits;
//  * each command costs management overhead + the optical task time from
//    the latency profile;
//  * duplicate requests (client retransmissions) are answered from a
//    response cache instead of re-executing the operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/alarm.hpp"
#include "common/flat_map.hpp"
#include "dwdm/muxponder.hpp"
#include "dwdm/roadm.hpp"
#include "dwdm/transponder.hpp"
#include "ems/latency_profile.hpp"
#include "fxc/fxc.hpp"
#include "otn/layer.hpp"
#include "proto/channel.hpp"
#include "proto/messages.hpp"
#include "sim/engine.hpp"

namespace griphon::telemetry {
class Telemetry;
class Counter;
class Histogram;
}  // namespace griphon::telemetry

namespace griphon::ems {

/// Chaos interface: consulted as each command leaves the dialogue queue.
/// A non-ok status makes the EMS NACK the command (after its management
/// overhead) instead of executing it; `latency_scale` stretches the
/// command's dialogue time (slow-command fault). Implemented by the fault
/// injector; null (the default) keeps the dialogue path on a one-pointer-
/// test fast path.
class EmsFaultHook {
 public:
  virtual ~EmsFaultHook() = default;
  [[nodiscard]] virtual Status on_command(const std::string& ems,
                                          const proto::Message& message) = 0;
  [[nodiscard]] virtual double latency_scale(const std::string& ems) = 0;
};

class EmsServer {
 public:
  EmsServer(sim::Engine* engine, proto::Endpoint* endpoint,
            EmsLatencyProfile profile, std::string name);

  // The endpoint and alarm callbacks capture `this`.
  EmsServer(const EmsServer&) = delete;
  EmsServer& operator=(const EmsServer&) = delete;

  // --- device inventory (non-owning; devices outlive the EMS) -----------
  void manage_fxc(fxc::Fxc* device);
  void manage_roadm(dwdm::Roadm* device);
  void manage_ot(dwdm::Transponder* device);
  void manage_regen(dwdm::Regenerator* device);
  void manage_nte(dwdm::Muxponder* device);
  void manage_otn(otn::OtnLayer* layer);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The name as metric and probe names spell the domain: without the
  /// "-ems" suffix, any '-' as '_' ("roadm-ems" -> "roadm").
  [[nodiscard]] std::string metric_domain() const;
  [[nodiscard]] std::size_t commands_executed() const noexcept {
    return executed_;
  }
  /// Commands waiting for their element dialogue (not yet dispatched).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_depth_;
  }

  /// Forward a device alarm to the controller (with notify latency).
  void forward_alarm(const Alarm& alarm);

  // --- chaos surface ----------------------------------------------------
  /// Attach/detach the chaos hook (null detaches).
  void set_fault_hook(EmsFaultHook* hook) noexcept { fault_hook_ = hook; }

  /// Crash the EMS process: every queued and mid-dialogue command is
  /// dropped on the floor (no response — the client times out), the
  /// response cache is flushed (a restarted EMS cannot deduplicate
  /// requests from before the crash), and incoming frames are ignored for
  /// `restart_after`. On restart the EMS announces itself with an
  /// unsolicited kEmsRestart alarm so the controller can reconcile its
  /// inventory against device state.
  void crash_restart(SimTime restart_after);
  [[nodiscard]] bool down() const noexcept { return down_; }
  [[nodiscard]] std::size_t crashes() const noexcept { return crashes_; }

  /// Response-cache introspection (LRU keyed by request id; replay hits
  /// refresh recency). Capacity is tunable for tests.
  void set_response_cache_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t response_cache_size() const noexcept {
    return cache_index_.size();
  }
  [[nodiscard]] std::size_t cache_evictions() const noexcept {
    return cache_evictions_;
  }

  /// Attach/detach a telemetry sink. Metrics are registered under
  /// griphon_ems_<metric_domain()>_*. Null = no-sink fast path.
  void set_telemetry(telemetry::Telemetry* telemetry);

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct QueuedCommand {
    std::uint64_t request_id = 0;
    proto::Message message;
    SimTime enqueued_at{};
  };
  /// A waiting command, chained into its element's FIFO.
  struct CommandNode {
    QueuedCommand cmd;
    std::uint32_t next = kNone;
  };
  /// One managed element's dialogue state: the FIFO of commands waiting
  /// for it (a chain through commands_) and the request it is executing.
  struct Element {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    bool busy = false;
    std::uint64_t in_flight = 0;  ///< request id; meaningful while busy
  };
  /// One cached response, linked into the LRU list.
  struct CacheNode {
    std::uint64_t id = 0;
    proto::Response response;
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
  };

  void handle_frame(const proto::Bytes& bytes);
  /// Dialogue key: which element a command talks to.
  [[nodiscard]] static std::uint64_t device_key(const proto::Message& m);
  /// Index into elements_ of the element behind `key`, added on first use.
  [[nodiscard]] std::uint32_t element_for(std::uint64_t key);
  /// Start the head command of element `e` unless it is mid-dialogue.
  void pump(std::uint32_t e);
  /// Element `e`'s dialogue ended: start its next command.
  void dialogue_done(std::uint32_t e);
  void execute(const QueuedCommand& cmd);
  /// Optical-task latency for this message type.
  [[nodiscard]] SimTime task_latency(const proto::Message& m);
  /// Run the device operation; fills `aux` for ops that return a handle.
  [[nodiscard]] Status apply(const proto::Message& m, std::uint64_t* aux);
  void respond(std::uint64_t request_id, const Status& status,
               std::uint64_t aux);

  /// Cached response for a request id (null on a miss), refreshing its
  /// LRU recency.
  [[nodiscard]] const proto::Response* cache_lookup(std::uint64_t id);
  /// Insert a response, recycling the least-recently-used entry when the
  /// cache is at capacity.
  void cache_insert(std::uint64_t id, proto::Response r);
  /// Evict least-recently-used ids until the cache fits its capacity.
  void cache_trim();
  void cache_flush();
  void cache_unlink(std::uint32_t n);
  void cache_link_hottest(std::uint32_t n);
  /// Unlink and unindex the coldest entry; returns its node.
  std::uint32_t cache_evict_coldest();

  sim::Engine* engine_;
  proto::Endpoint* endpoint_;
  EmsLatencyProfile profile_;
  std::string name_;

  FlatMap<fxc::Fxc*> fxcs_;
  FlatMap<dwdm::Roadm*> roadms_;
  FlatMap<dwdm::Transponder*> ots_;
  FlatMap<dwdm::Regenerator*> regens_;
  FlatMap<dwdm::Muxponder*> ntes_;
  otn::OtnLayer* otn_ = nullptr;

  /// One dialogue at a time *per managed element*: commands to distinct
  /// devices proceed concurrently, commands to one device queue up. The
  /// element table is a hash index (element key -> slot) over a dense
  /// vector, so a dialogue completion addresses its element by slot.
  FlatMap<std::uint32_t> element_index_;
  std::vector<Element> elements_;
  /// Slab of queued commands; freed nodes chain through `next`.
  std::vector<CommandNode> commands_;
  std::uint32_t free_command_ = kNone;
  std::size_t queue_depth_ = 0;

  /// Response cache: request id -> node of a slab of at most `capacity`
  /// nodes, doubly linked in LRU order (head = coldest). A full cache
  /// recycles its coldest node for the next response.
  FlatMap<std::uint32_t> cache_index_;
  std::vector<CacheNode> cache_nodes_;
  std::uint32_t cache_coldest_ = kNone;
  std::uint32_t cache_hottest_ = kNone;
  std::uint32_t cache_free_ = kNone;
  std::size_t cache_capacity_ = 256;
  std::size_t cache_evictions_ = 0;
  std::size_t executed_ = 0;

  EmsFaultHook* fault_hook_ = nullptr;
  bool down_ = false;
  std::size_t crashes_ = 0;
  /// Bumped on every crash; dialogue completions from before the crash
  /// compare against it and evaporate instead of responding.
  std::uint64_t boot_epoch_ = 0;

  // Telemetry handles, cached at attach time so the dialogue path costs
  // one pointer test when telemetry is off and no lookups when it is on.
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* commands_total_ = nullptr;
  telemetry::Counter* alarms_forwarded_total_ = nullptr;
  telemetry::Counter* cache_evictions_total_ = nullptr;
  telemetry::Counter* crashes_total_ = nullptr;
  telemetry::Histogram* queue_wait_seconds_ = nullptr;
  telemetry::Histogram* task_seconds_ = nullptr;
};

}  // namespace griphon::ems
