#include "dwdm/roadm.hpp"

#include <stdexcept>

namespace griphon::dwdm {

DegreeIndex Roadm::attach_degree(LinkId link) {
  if (degree_for(link))
    throw std::invalid_argument("Roadm: degree already faces this link");
  degree_links_.push_back(link);
  uses_.emplace_back();
  used_sets_.emplace_back();
  return static_cast<DegreeIndex>(degree_links_.size() - 1);
}

std::optional<DegreeIndex> Roadm::degree_for(LinkId link) const {
  for (std::size_t i = 0; i < degree_links_.size(); ++i)
    if (degree_links_[i] == link) return static_cast<DegreeIndex>(i);
  return std::nullopt;
}

LinkId Roadm::link_of(DegreeIndex degree) const {
  if (!valid_degree(degree))
    throw std::out_of_range("Roadm::link_of: bad degree");
  return degree_links_[static_cast<std::size_t>(degree)];
}

std::vector<PortId> Roadm::add_ports(std::size_t count) {
  std::vector<PortId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ports_.push_back(PortState{});
    out.push_back(PortId{ports_.size() - 1});
  }
  return out;
}

PortId Roadm::add_fixed_port(DegreeIndex degree, ChannelIndex channel) {
  if (!valid_degree(degree) || !grid_.contains(channel))
    throw std::invalid_argument("Roadm::add_fixed_port: bad binding");
  PortState st;
  st.mode = PortMode::kFixed;
  st.fixed_degree = degree;
  st.fixed_channel = channel;
  ports_.push_back(st);
  return PortId{ports_.size() - 1};
}

const Roadm::PortState& Roadm::port(PortId p) const {
  if (p.value() >= ports_.size())
    throw std::out_of_range("Roadm::port: unknown port");
  return ports_[p.value()];
}

Status Roadm::configure_express(ChannelIndex ch, DegreeIndex in,
                                DegreeIndex out) {
  if (!grid_.contains(ch))
    return Status{ErrorCode::kInvalidArgument, name() + ": bad channel"};
  if (!valid_degree(in) || !valid_degree(out) || in == out)
    return Status{ErrorCode::kInvalidArgument, name() + ": bad degrees"};
  if (channel_in_use(in, ch) || channel_in_use(out, ch))
    return Status{ErrorCode::kBusy,
                  name() + ": " + grid_.name(ch) + " already in use"};
  Use use;
  use.is_express = true;
  use.other_degree = out;
  uses_[static_cast<std::size_t>(in)][ch] = use;
  use.other_degree = in;
  uses_[static_cast<std::size_t>(out)][ch] = use;
  used_sets_[static_cast<std::size_t>(in)].add(ch);
  used_sets_[static_cast<std::size_t>(out)].add(ch);
  changed(in);
  changed(out);
  return Status::success();
}

Status Roadm::release_express(ChannelIndex ch, DegreeIndex in,
                              DegreeIndex out) {
  if (!valid_degree(in) || !valid_degree(out))
    return Status{ErrorCode::kInvalidArgument, name() + ": bad degrees"};
  auto& min = uses_[static_cast<std::size_t>(in)];
  auto& mout = uses_[static_cast<std::size_t>(out)];
  const auto ii = min.find(ch);
  const auto oi = mout.find(ch);
  if (ii == min.end() || oi == mout.end() || !ii->second.is_express ||
      ii->second.other_degree != out)
    return Status{ErrorCode::kConflict,
                  name() + ": no such express cross-connect"};
  min.erase(ii);
  mout.erase(oi);
  used_sets_[static_cast<std::size_t>(in)].remove(ch);
  used_sets_[static_cast<std::size_t>(out)].remove(ch);
  changed(in);
  changed(out);
  return Status::success();
}

Status Roadm::configure_add_drop(PortId p, DegreeIndex degree,
                                 ChannelIndex ch) {
  if (p.value() >= ports_.size())
    return Status{ErrorCode::kNotFound, name() + ": unknown port"};
  if (!grid_.contains(ch) || !valid_degree(degree))
    return Status{ErrorCode::kInvalidArgument, name() + ": bad target"};
  PortState& st = ports_[p.value()];
  if (st.active)
    return Status{ErrorCode::kBusy, name() + ": port already configured"};
  if (st.mode == PortMode::kFixed &&
      (st.fixed_degree != degree || st.fixed_channel != ch))
    return Status{ErrorCode::kConflict,
                  name() + ": fixed port cannot steer/retune"};
  if (channel_in_use(degree, ch))
    return Status{ErrorCode::kBusy,
                  name() + ": " + grid_.name(ch) + " already in use"};
  st.active = true;
  st.degree = degree;
  st.channel = ch;
  Use use;
  use.is_express = false;
  use.port = p;
  uses_[static_cast<std::size_t>(degree)][ch] = use;
  used_sets_[static_cast<std::size_t>(degree)].add(ch);
  changed(degree);
  return Status::success();
}

Status Roadm::release_add_drop(PortId p) {
  if (p.value() >= ports_.size())
    return Status{ErrorCode::kNotFound, name() + ": unknown port"};
  PortState& st = ports_[p.value()];
  if (!st.active)
    return Status{ErrorCode::kConflict, name() + ": port not configured"};
  const DegreeIndex degree = st.degree;
  uses_[static_cast<std::size_t>(degree)].erase(st.channel);
  used_sets_[static_cast<std::size_t>(degree)].remove(st.channel);
  st.active = false;
  st.degree = -1;
  st.channel = kNoChannel;
  changed(degree);
  return Status::success();
}

bool Roadm::channel_in_use(DegreeIndex degree, ChannelIndex ch) const {
  if (!valid_degree(degree))
    throw std::out_of_range("Roadm::channel_in_use: bad degree");
  return grid_.contains(ch) &&
         used_sets_[static_cast<std::size_t>(degree)].contains(ch);
}

ChannelSet Roadm::free_channels(DegreeIndex degree) const {
  if (!valid_degree(degree))
    throw std::out_of_range("Roadm::free_channels: bad degree");
  ChannelSet s = ChannelSet::all(grid_.count());
  s.subtract(used_sets_[static_cast<std::size_t>(degree)]);
  return s;
}

const ChannelSet& Roadm::used_channels(DegreeIndex degree) const {
  if (!valid_degree(degree))
    throw std::out_of_range("Roadm::used_channels: bad degree");
  return used_sets_[static_cast<std::size_t>(degree)];
}

std::size_t Roadm::active_uses() const {
  std::size_t n = 0;
  for (const auto& m : uses_) n += m.size();
  return n;
}

std::vector<Roadm::ActiveUse> Roadm::uses() const {
  std::vector<ActiveUse> out;
  out.reserve(active_uses());
  for (std::size_t d = 0; d < uses_.size(); ++d)
    for (const auto& [ch, use] : uses_[d])
      out.push_back(ActiveUse{static_cast<DegreeIndex>(d), ch, use.is_express,
                              use.other_degree, use.port});
  return out;
}

void Roadm::raise(AlarmType type, LinkId link, ChannelIndex ch, SimTime now,
                  std::string detail) {
  if (!alarm_sink_) return;
  Alarm a;
  a.id = alarm_ids_.next();
  a.type = type;
  a.raised_at = now;
  a.source = name();
  a.node = site_;
  a.link = link;
  if (ch != kNoChannel) a.channel = ch;
  a.detail = std::move(detail);
  alarm_sink_(a);
}

void Roadm::on_link_failed(LinkId link, SimTime now) {
  const auto degree = degree_for(link);
  if (!degree) return;
  // The optical supervisory channel watches the span itself, so a degree
  // reports loss of signal even when no traffic channel is configured yet.
  raise(AlarmType::kLos, link, kNoChannel, now, "osc");
  for (const auto& [ch, use] : uses_[static_cast<std::size_t>(*degree)]) {
    raise(AlarmType::kLos, link, ch, now,
          use.is_express ? "express" : "add-drop");
  }
}

void Roadm::on_link_restored(LinkId link, SimTime now) {
  const auto degree = degree_for(link);
  if (!degree) return;
  raise(AlarmType::kClear, link, kNoChannel, now, "osc");
  for (const auto& [ch, use] : uses_[static_cast<std::size_t>(*degree)])
    raise(AlarmType::kClear, link, ch, now, "link repaired");
}

}  // namespace griphon::dwdm
