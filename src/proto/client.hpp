// Request/response client over a control channel.
//
// The controller-side protocol stack: correlates responses to requests by
// frame id, enforces per-request deadlines, and retries lost frames.
// Retransmissions reuse the original request id so the EMS can deduplicate
// (EMS servers cache recent responses and replay them).
#pragma once

#include <cstdint>
#include <functional>

#include "common/flat_map.hpp"
#include "common/result.hpp"
#include "proto/channel.hpp"
#include "proto/messages.hpp"
#include "sim/engine.hpp"

namespace griphon::proto {

class RequestClient {
 public:
  using ResponseCallback = std::function<void(Result<Response>)>;
  using EventHandler = std::function<void(const Frame&)>;

  struct Params {
    SimTime timeout = seconds(5);
    int max_attempts = 4;  ///< 1 original + 3 retries
  };

  RequestClient(sim::Engine* engine, Endpoint* endpoint, Params params);

  /// Issue a request; `cb` fires exactly once with the response or with a
  /// kTimeout error after all attempts are exhausted. Returns the request
  /// id the frame was sent under.
  ///
  /// `reuse_id` (an id previously returned by this client, no longer
  /// pending) reissues under that id instead of allocating a fresh one:
  /// the application-level idempotency key for retry-after-timeout. The
  /// EMS answers a reused id from its response cache when the original
  /// execution did complete, so retrying cannot double-execute. Pass 0
  /// (the default) for a new id; a reuse_id that is still pending is
  /// ignored (a fresh id is allocated) rather than orphaning the earlier
  /// callback.
  std::uint64_t request(const Message& message, ResponseCallback cb,
                        std::uint64_t reuse_id = 0);

  /// Handler for unsolicited frames (alarm events).
  void on_event(EventHandler handler) { event_handler_ = std::move(handler); }

  [[nodiscard]] std::size_t retransmissions() const noexcept {
    return retransmissions_;
  }
  [[nodiscard]] std::size_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }

 private:
  struct Pending {
    Bytes frame;  // retained for retransmission
    ResponseCallback cb;
    int attempts_left = 0;
    sim::EventHandle timer;
  };

  void handle_frame(const Bytes& bytes);
  void arm_timer(std::uint64_t request_id, Pending& p);
  void on_timeout(std::uint64_t request_id);

  sim::Engine* engine_;
  Endpoint* endpoint_;
  Params params_;
  EventHandler event_handler_;
  FlatMap<Pending> pending_;
  std::uint64_t next_request_id_ = 1;
  std::size_t retransmissions_ = 0;
  std::size_t timeouts_ = 0;
};

}  // namespace griphon::proto
