#include "proto/client.hpp"

#include <cassert>
#include <utility>

namespace griphon::proto {

RequestClient::RequestClient(sim::Engine* engine, Endpoint* endpoint,
                             Params params)
    : engine_(engine), endpoint_(endpoint), params_(params) {
  endpoint_->on_receive([this](const Bytes& bytes) { handle_frame(bytes); });
}

std::uint64_t RequestClient::request(const Message& message,
                                     ResponseCallback cb,
                                     std::uint64_t reuse_id) {
  const std::uint64_t id = (reuse_id != 0 && !pending_.contains(reuse_id))
                               ? reuse_id
                               : next_request_id_++;
  const auto slot = pending_.insert_or_assign(
      id, Pending{encode_frame(id, message), std::move(cb),
                  params_.max_attempts - 1, {}});
  Pending& p = slot.first->second;
  endpoint_->send(p.frame);
  arm_timer(id, p);
  return id;
}

void RequestClient::arm_timer(std::uint64_t request_id, Pending& p) {
  p.timer = engine_->schedule(
      params_.timeout, [this, request_id]() { on_timeout(request_id); });
}

void RequestClient::on_timeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // response raced the timer
  Pending& p = it->second;
  if (p.attempts_left > 0) {
    --p.attempts_left;
    ++retransmissions_;
    endpoint_->send(p.frame);
    arm_timer(request_id, p);
    return;
  }
  ++timeouts_;
  ResponseCallback cb = std::move(p.cb);
  pending_.erase(it);
  cb(Error{ErrorCode::kTimeout, "proto: request timed out after retries"});
}

void RequestClient::handle_frame(const Bytes& bytes) {
  auto frame = decode_frame(bytes);
  if (!frame.ok()) return;  // corrupt frame: ignore, retry will recover
  if (const auto* resp = std::get_if<Response>(&frame.value().message)) {
    const auto it = pending_.find(frame.value().request_id);
    if (it == pending_.end()) return;  // duplicate response after retry
    engine_->cancel(it->second.timer);
    ResponseCallback cb = std::move(it->second.cb);
    const Response r = *resp;
    pending_.erase(it);
    cb(r);
    return;
  }
  if (event_handler_) event_handler_(frame.value());
}

}  // namespace griphon::proto
