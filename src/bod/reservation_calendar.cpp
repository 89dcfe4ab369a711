#include "bod/reservation_calendar.hpp"

#include <algorithm>
#include <sstream>

namespace griphon::bod {

ReservationCalendar::ReservationCalendar(Params params)
    : params_(params) {}

void ReservationCalendar::set_link_capacity(LinkId link, DataRate capacity) {
  capacity_override_[link] = capacity;
}

DataRate ReservationCalendar::link_capacity(LinkId link) const {
  const auto it = capacity_override_.find(link);
  return it == capacity_override_.end() ? params_.default_link_capacity
                                        : it->second;
}

std::pair<ReservationCalendar::SlotIndex, ReservationCalendar::SlotIndex>
ReservationCalendar::slots_of(Window w) const noexcept {
  const SlotIndex first = slot_of(w.start);
  // End is exclusive: a window ending exactly on a slot edge does not
  // occupy the next slot.
  const SlotIndex last =
      (w.end.count() + params_.slot.count() - 1) / params_.slot.count();
  return {first, std::max(last, first + 1)};
}

void ReservationCalendar::apply(const Reservation& r, Window w, bool add) {
  const auto [first, last] = slots_of(w);
  for (const LinkId link : r.links) {
    auto& slots = committed_[link];
    for (SlotIndex s = first; s < last; ++s) {
      auto& used = slots[s];
      if (add) {
        used += r.rate;
      } else {
        used -= r.rate;
        if (used <= DataRate{}) slots.erase(s);
      }
    }
  }
}

bool ReservationCalendar::feasible(const std::vector<LinkId>& links,
                                   DataRate rate, Window window) const {
  if (!window.valid()) return false;
  const auto [first, last] = slots_of(window);
  for (const LinkId link : links) {
    const DataRate cap = link_capacity(link);
    if (rate > cap) return false;
    const auto it = committed_.find(link);
    if (it == committed_.end()) continue;
    // Scan only the slots that actually carry commitments in the range.
    for (auto s = it->second.lower_bound(first);
         s != it->second.end() && s->first < last; ++s)
      if (s->second + rate > cap) return false;
  }
  return true;
}

Result<Window> ReservationCalendar::earliest_feasible(
    const std::vector<LinkId>& links, DataRate rate, SimTime duration,
    SimTime not_before, SimTime end_before) const {
  if (duration <= SimTime{})
    return Error{ErrorCode::kInvalidArgument,
                 "calendar: window duration must be positive"};

  const SlotIndex slots_needed =
      std::max<SlotIndex>(1, (duration.count() + params_.slot.count() - 1) /
                                 params_.slot.count());
  SlotIndex start = slot_of(not_before);
  // Not-before may fall mid-slot; a window may not start in the past part
  // of its first slot, so begin at the next edge unless aligned.
  if (SimTime{start * params_.slot.count()} < not_before) ++start;
  const SlotIndex limit =
      start + params_.horizon.count() / params_.slot.count();

  // One forward-only cursor per link that carries commitments: capacity
  // and slot map are looked up once per call, and every slot the cursor
  // has passed is either before the candidate start or known not to block,
  // so each committed slot is read at most once however often the search
  // restarts.
  struct Cursor {
    DataRate cap;
    std::map<SlotIndex, DataRate>::const_iterator it, end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(links.size());
  for (const LinkId link : links) {
    const DataRate cap = link_capacity(link);
    if (rate > cap)
      return Error{ErrorCode::kResourceExhausted,
                   "calendar: rate exceeds link capacity budget"};
    const auto it = committed_.find(link);
    if (it != committed_.end())
      cursors.push_back({cap, it->second.lower_bound(start), it->second.end()});
  }

  // Windows must end strictly before end_before: ws + duration < end_before.
  const SimTime last_start_before = end_before - duration;
  while (start < limit &&
         SimTime{start * params_.slot.count()} < last_start_before) {
    // Find each link's first full slot in [start, start+needed); restart
    // just past the latest of them (classic earliest-gap scan).
    const SlotIndex stop = start + slots_needed;
    SlotIndex blocked = -1;
    for (Cursor& c : cursors) {
      while (c.it != c.end && c.it->first < stop) {
        if (c.it->first >= start && c.it->second + rate > c.cap) {
          blocked = std::max(blocked, c.it->first);
          break;
        }
        ++c.it;
      }
    }
    if (blocked < 0) {
      const SimTime ws{start * params_.slot.count()};
      return Window{ws, ws + duration};
    }
    start = blocked + 1;
  }
  return Error{ErrorCode::kResourceExhausted,
               start < limit
                   ? "calendar: no feasible window ends before the bound"
                   : "calendar: no feasible window inside the search horizon"};
}

Result<ReservationId> ReservationCalendar::reserve(CustomerId customer,
                                                   std::vector<LinkId> links,
                                                   DataRate rate,
                                                   Window window) {
  if (!window.valid() || links.empty() || rate <= DataRate{})
    return Error{ErrorCode::kInvalidArgument,
                 "calendar: reservation needs links, a rate and a window"};
  if (!feasible(links, rate, window)) {
    // Conflict: tell the caller when the same request *would* fit.
    const auto alt =
        earliest_feasible(links, rate, window.duration(), window.start);
    std::string msg = "calendar: window conflicts with committed capacity";
    if (alt.ok())
      msg += "; earliest feasible window starts at " +
             std::to_string(to_seconds(alt.value().start)) + "s";
    return Error{ErrorCode::kResourceExhausted, std::move(msg)};
  }
  Reservation r;
  r.id = ids_.next();
  r.customer = customer;
  r.links = std::move(links);
  r.rate = rate;
  r.window = window;
  apply(r, window, /*add=*/true);
  const ReservationId id = r.id;
  reservations_[id] = std::move(r);
  return id;
}

Status ReservationCalendar::release(ReservationId id) {
  const auto it = reservations_.find(id);
  if (it == reservations_.end())
    return Status{ErrorCode::kNotFound, "calendar: unknown reservation"};
  apply(it->second, it->second.window, /*add=*/false);
  reservations_.erase(it);
  return Status::success();
}

Status ReservationCalendar::truncate(ReservationId id, SimTime new_end) {
  const auto it = reservations_.find(id);
  if (it == reservations_.end())
    return Status{ErrorCode::kNotFound, "calendar: unknown reservation"};
  Reservation& r = it->second;
  if (new_end >= r.window.end) return Status::success();  // nothing to free
  const SimTime clamped = std::max(new_end, r.window.start);
  // Re-apply on slot granularity: remove the whole window, add the stub.
  apply(r, r.window, /*add=*/false);
  r.window.end = clamped;
  if (r.window.valid()) {
    apply(r, r.window, /*add=*/true);
  } else {
    reservations_.erase(it);
  }
  return Status::success();
}

const ReservationCalendar::Reservation* ReservationCalendar::find(
    ReservationId id) const {
  const auto it = reservations_.find(id);
  return it == reservations_.end() ? nullptr : &it->second;
}

DataRate ReservationCalendar::committed(LinkId link, SimTime at) const {
  const auto it = committed_.find(link);
  if (it == committed_.end()) return DataRate{};
  const auto s = it->second.find(slot_of(at));
  return s == it->second.end() ? DataRate{} : s->second;
}

std::string ReservationCalendar::render(const std::vector<LinkId>& links,
                                        SimTime from, SimTime until) const {
  std::ostringstream os;
  const SlotIndex first = slot_of(from);
  const SlotIndex last = slot_of(until);
  os << "calendar " << to_seconds(from) << "s .. " << to_seconds(until)
     << "s (" << to_seconds(params_.slot) << "s slots, 0-9 = tenths of "
     << "capacity committed)\n";
  for (const LinkId link : links) {
    const DataRate cap = link_capacity(link);
    os << "  link " << link.value() << " [";
    for (SlotIndex s = first; s < last; ++s) {
      const SimTime at{s * params_.slot.count()};
      const DataRate used = committed(link, at);
      if (used <= DataRate{}) {
        os << '.';
      } else {
        const auto tenth = static_cast<int>(
            10.0 * static_cast<double>(used.in_bps()) /
            static_cast<double>(cap.in_bps()));
        os << std::min(9, std::max(0, tenth));
      }
    }
    os << "] " << cap.in_gbps() << "G budget\n";
  }
  return os.str();
}

}  // namespace griphon::bod
