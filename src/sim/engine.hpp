// Discrete-event simulation engine.
//
// A single-threaded event loop with a simulated clock. Every active entity
// in GRIPhoN (EMS, device, controller, protocol channel, workload source)
// schedules callbacks on one Engine. Events at equal timestamps fire in
// scheduling order (FIFO tie-break), which makes runs fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace griphon::sim {

/// Handle used to cancel a scheduled event: the callback's slab slot plus
/// the event's sequence number, which tells a live event from a later one
/// that reuses the slot.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class Engine;
  EventHandle(std::uint32_t slot, std::uint64_t seq)
      : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  explicit Engine(std::uint64_t seed = 1) : rng_(seed) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Engine-owned RNG; all stochastic models should draw from it (or from
  /// forks of it) for reproducibility.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedule `fn` to run `delay` from now. Negative delays are clamped to
  /// zero (i.e. "run as soon as possible, after already-queued events at
  /// the current instant").
  EventHandle schedule(SimTime delay, Callback fn);

  /// Schedule at an absolute simulated time (>= now).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Cancel a pending event and destroy its callback now. No-op if it
  /// already fired or was cancelled.
  void cancel(EventHandle handle);

  /// Run until the queue is empty. Returns the number of events fired.
  std::size_t run();

  /// Run until the queue is empty or simulated time would exceed
  /// `deadline`; events after the deadline stay queued and `now()` is
  /// advanced to exactly `deadline`.
  std::size_t run_until(SimTime deadline);

  /// Fire at most one event. Returns false when the queue is empty.
  bool step();

  /// Events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  // The heap orders plain entries; callbacks live in a slab indexed by
  // `slot`. A slot whose seq differs from its entry's was cancelled (and
  // maybe reused): the entry is skipped when it reaches the head.
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // FIFO tie-break and liveness check
    std::uint32_t slot;
  };
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;  // 0 = free
  };

  /// The next live entry, after popping cancelled ones; null when none.
  const Entry* live_head();
  // Binary min-heap on (when, seq) over heap_.
  void push_entry(Entry entry);
  void pop_head();
  void free_slot(std::uint32_t slot);
  bool pop_one();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_{};
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::size_t live_ = 0;
  Rng rng_;
};

}  // namespace griphon::sim
