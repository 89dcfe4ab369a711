#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

namespace griphon::sim {

EventHandle Engine::schedule(SimTime delay, Callback fn) {
  return schedule_at(now_ + std::max(SimTime{}, delay), std::move(fn));
}

EventHandle Engine::schedule_at(SimTime when, Callback fn) {
  assert(fn && "scheduling an empty callback");
  const auto seq = next_seq_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  ++live_;
  push_entry(Entry{std::max(when, now_), seq, slot});
  return EventHandle{slot, seq};
}

void Engine::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size() ||
      slots_[handle.slot_].seq != handle.seq_)
    return;  // already fired or cancelled
  slots_[handle.slot_].fn = nullptr;
  free_slot(handle.slot_);
}

void Engine::free_slot(std::uint32_t slot) {
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
  --live_;
}

void Engine::push_entry(Entry entry) {
  // Sift up from a hole at the new leaf.
  std::size_t at = heap_.size();
  heap_.push_back(entry);
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[at] = heap_[parent];
    at = parent;
  }
  heap_[at] = entry;
}

void Engine::pop_head() {
  // Sift the last entry down from a hole at the root.
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t at = 0;
  for (std::size_t child = 1; child < n; child = 2 * at + 1) {
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], last)) break;
    heap_[at] = heap_[child];
    at = child;
  }
  heap_[at] = last;
}

const Engine::Entry* Engine::live_head() {
  while (!heap_.empty()) {
    const Entry& head = heap_.front();
    if (slots_[head.slot].seq == head.seq) return &head;
    pop_head();
  }
  return nullptr;
}

bool Engine::pop_one() {
  const Entry* head = live_head();
  if (head == nullptr) return false;
  const Entry ev = *head;
  pop_head();
  // Free the slot before the call: the callback may schedule into it, and
  // cancelling its own handle must be a no-op.
  Callback fn = std::move(slots_[ev.slot].fn);
  free_slot(ev.slot);
  now_ = ev.when;
  ++fired_;
  fn();
  return true;
}

std::size_t Engine::run() {
  std::size_t n = 0;
  while (pop_one()) ++n;
  return n;
}

std::size_t Engine::run_until(SimTime deadline) {
  std::size_t n = 0;
  // The deadline check must see the next event that would actually fire:
  // a cancelled entry inside the horizon must not let a live event from
  // beyond it through.
  for (const Entry* head = live_head();
       head != nullptr && head->when <= deadline; head = live_head()) {
    pop_one();
    ++n;
  }
  now_ = std::max(now_, deadline);
  return n;
}

bool Engine::step() { return pop_one(); }

}  // namespace griphon::sim
