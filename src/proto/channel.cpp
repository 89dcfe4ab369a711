#include "proto/channel.hpp"

#include <cassert>
#include <utility>

namespace griphon::proto {

void Endpoint::send(Bytes frame) {
  assert(channel_ != nullptr && "endpoint not attached to a channel");
  channel_->transmit(peer_, std::move(frame));
}

ControlChannel::ControlChannel(sim::Engine* engine, Params params)
    : engine_(engine), params_(params) {
  a_.channel_ = this;
  a_.peer_ = &b_;
  b_.channel_ = this;
  b_.peer_ = &a_;
}

void ControlChannel::transmit(Endpoint* to, Bytes frame) {
  ++sent_;
  if (params_.loss_probability > 0 &&
      engine_->rng().chance(params_.loss_probability)) {
    ++dropped_;
    return;
  }
  FaultDecision fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->on_frame();
    if (fault.drop) {
      ++dropped_;
      return;
    }
  }
  const SimTime delay =
      params_.latency.sample(engine_->rng()) + fault.extra_delay;
  // Clamp so deliveries in one direction never reorder (FIFO channel).
  SimTime when = engine_->now() + delay;
  SimTime& last = (to == &a_) ? last_to_a_ : last_to_b_;
  when = std::max(when, last);
  last = when;
  if (fault.duplicate) {
    // The copy trails the original by another latency sample (still FIFO).
    SimTime dup_when = when + params_.latency.sample(engine_->rng());
    dup_when = std::max(dup_when, last);
    last = dup_when;
    engine_->schedule_at(when, [to, frame]() { to->deliver(frame); });
    engine_->schedule_at(dup_when, [to, frame = std::move(frame)]() {
      to->deliver(frame);
    });
    return;
  }
  engine_->schedule_at(when, [to, frame = std::move(frame)]() {
    to->deliver(frame);
  });
}

}  // namespace griphon::proto
