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
  Pending& p = *pending_.try_emplace(id).first;
  p = Pending{encode_frame(id, message), std::move(cb),
              params_.max_attempts - 1, {}};
  endpoint_->send(p.frame);
  arm_timer(id, p);
  return id;
}

void RequestClient::arm_timer(std::uint64_t request_id, Pending& p) {
  p.timer = engine_->schedule(
      params_.timeout, [this, request_id]() { on_timeout(request_id); });
}

void RequestClient::on_timeout(std::uint64_t request_id) {
  Pending* const found = pending_.find(request_id);
  if (found == nullptr) return;  // response raced the timer
  Pending& p = *found;
  if (p.attempts_left > 0) {
    --p.attempts_left;
    ++retransmissions_;
    endpoint_->send(p.frame);
    arm_timer(request_id, p);
    return;
  }
  ++timeouts_;
  ResponseCallback cb = std::move(p.cb);
  pending_.erase(request_id);
  cb(Error{ErrorCode::kTimeout, "proto: request timed out after retries"});
}

void RequestClient::handle_frame(const Bytes& bytes) {
  auto frame = decode_frame(bytes);
  if (!frame.ok()) return;  // corrupt frame: ignore, retry will recover
  if (auto* resp = std::get_if<Response>(&frame.value().message)) {
    const std::uint64_t id = frame.value().request_id;
    Pending* const p = pending_.find(id);
    if (p == nullptr) return;  // duplicate response after retry
    engine_->cancel(p->timer);
    ResponseCallback cb = std::move(p->cb);
    pending_.erase(id);
    cb(std::move(*resp));
    return;
  }
  if (event_handler_) event_handler_(frame.value());
}

}  // namespace griphon::proto
