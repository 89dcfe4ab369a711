// Advance-reservation calendar — committed capacity per (link, time-slot).
//
// The BoD service layer sells bandwidth over *time windows*, not just
// "now": scheduled backup wants 40G from 02:00 to 04:00, a deadline
// transfer wants any window that finishes before Friday. The calendar is
// the single source of truth for how much capacity is already promised on
// each fiber link in each future time slot, and answers the query every
// admission decision hangs on: "what is the earliest window in which this
// route can carry this rate for this long?"
//
// Time is discretized into fixed slots (default 5 min). A reservation
// occupies every slot its window overlaps, on every link of its route.
// Capacity is modeled per link as a DataRate budget — the share of the
// link's spectrum the carrier exposes to the BoD service (the rest stays
// for on-demand and restoration headroom).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/units.hpp"

namespace griphon::bod {

/// Half-open service window [start, end).
struct Window {
  SimTime start{};
  SimTime end{};

  [[nodiscard]] SimTime duration() const noexcept { return end - start; }
  [[nodiscard]] bool valid() const noexcept { return end > start; }
  friend bool operator==(const Window&, const Window&) = default;
};

class ReservationCalendar {
 public:
  struct Params {
    SimTime slot = minutes(5);  ///< slot width; windows round out to slots
    /// Capacity budget per link unless overridden via set_link_capacity.
    DataRate default_link_capacity = DataRate::gbps(40);
    /// How far ahead earliest_feasible() searches before giving up.
    SimTime horizon = hours(14 * 24);
  };

  ReservationCalendar() : ReservationCalendar(Params{}) {}
  explicit ReservationCalendar(Params params);

  void set_link_capacity(LinkId link, DataRate capacity);
  [[nodiscard]] DataRate link_capacity(LinkId link) const;

  struct Reservation {
    ReservationId id;
    CustomerId customer;
    std::vector<LinkId> links;
    DataRate rate;
    Window window;
  };

  /// Commit `rate` on every link of `links` for `window`. On conflict
  /// nothing is committed and the error (kResourceExhausted) names the
  /// earliest feasible same-duration window — also available directly via
  /// earliest_feasible().
  [[nodiscard]] Result<ReservationId> reserve(CustomerId customer,
                                              std::vector<LinkId> links,
                                              DataRate rate, Window window);

  /// Release a reservation's capacity (idempotent; unknown id = kNotFound).
  [[nodiscard]] Status release(ReservationId id);

  /// Shrink a committed reservation's window to end at `new_end` (a
  /// transfer that finished early hands its tail back to the calendar).
  [[nodiscard]] Status truncate(ReservationId id, SimTime new_end);

  [[nodiscard]] const Reservation* find(ReservationId id) const;
  [[nodiscard]] std::size_t active_reservations() const noexcept {
    return reservations_.size();
  }

  /// True iff every slot of `window` has `rate` headroom on every link.
  [[nodiscard]] bool feasible(const std::vector<LinkId>& links, DataRate rate,
                              Window window) const;

  /// Earliest window of `duration` starting at or after `not_before` with
  /// `rate` headroom on every link; kResourceExhausted when nothing fits
  /// inside the search horizon. Only windows ending strictly before
  /// `end_before` are considered, so a caller comparing candidates stops
  /// searching once a window could no longer beat its current best.
  [[nodiscard]] Result<Window> earliest_feasible(
      const std::vector<LinkId>& links, DataRate rate, SimTime duration,
      SimTime not_before, SimTime end_before = SimTime::max()) const;

  /// Capacity already committed on `link` at instant `at`.
  [[nodiscard]] DataRate committed(LinkId link, SimTime at) const;

  /// ASCII occupancy chart of [from, until) for the given links, one row
  /// per link, one column per slot (0-9 = tenths of capacity committed).
  [[nodiscard]] std::string render(const std::vector<LinkId>& links,
                                   SimTime from, SimTime until) const;

 private:
  using SlotIndex = std::int64_t;

  [[nodiscard]] SlotIndex slot_of(SimTime t) const noexcept {
    return t.count() / params_.slot.count();
  }
  /// Slots [first, last) covered by a window, rounded outward.
  [[nodiscard]] std::pair<SlotIndex, SlotIndex> slots_of(
      Window w) const noexcept;
  void apply(const Reservation& r, Window w, bool add);

  Params params_;
  std::unordered_map<LinkId, DataRate> capacity_override_;
  /// Committed rate per (link, slot); absent slot = nothing committed.
  std::unordered_map<LinkId, std::map<SlotIndex, DataRate>> committed_;
  std::map<ReservationId, Reservation> reservations_;
  IdAllocator<ReservationId> ids_;
};

}  // namespace griphon::bod
