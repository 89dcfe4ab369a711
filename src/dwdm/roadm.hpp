// ROADM network element.
//
// A multi-degree ROADM sits at a node; each *degree* faces one inter-node
// fiber link. Traffic on a wavelength may be expressed between two degrees
// or added/dropped at a local port. Ports are *colorless* (any channel) and
// *non-directional* (any degree) as the paper requires, with an optional
// fixed mode kept for ablation studies.
//
// The ROADM is a passive state machine: configuration latency lives in the
// EMS layer; validity rules (one use per channel per degree) live here.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/alarm.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "dwdm/wavelength.hpp"
#include "topology/graph.hpp"

namespace griphon::dwdm {

/// Degree index within one ROADM.
using DegreeIndex = int;

class Roadm {
 public:
  /// How add/drop ports may be used.
  enum class PortMode {
    kColorlessSteerable,  ///< any channel, any degree (GRIPhoN hardware)
    kFixed,               ///< bound to one (degree, channel) at install time
  };

  struct PortState {
    PortMode mode = PortMode::kColorlessSteerable;
    // For kFixed ports: the binding chosen at install time.
    DegreeIndex fixed_degree = -1;
    ChannelIndex fixed_channel = kNoChannel;
    // Current configuration (valid when active).
    bool active = false;
    DegreeIndex degree = -1;
    ChannelIndex channel = kNoChannel;
  };

  Roadm(RoadmId id, NodeId site, WavelengthGrid grid)
      : id_(id), site_(site), grid_(grid) {}

  [[nodiscard]] RoadmId id() const noexcept { return id_; }
  [[nodiscard]] NodeId site() const noexcept { return site_; }
  [[nodiscard]] const WavelengthGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::string name() const {
    return "roadm/" + std::to_string(id_.value());
  }

  /// Attach a new degree facing `link`. Returns the degree index.
  DegreeIndex attach_degree(LinkId link);
  [[nodiscard]] std::optional<DegreeIndex> degree_for(LinkId link) const;
  [[nodiscard]] LinkId link_of(DegreeIndex degree) const;
  [[nodiscard]] std::size_t degree_count() const noexcept {
    return degree_links_.size();
  }

  /// Install `count` colorless/steerable add-drop ports; returns their ids.
  std::vector<PortId> add_ports(std::size_t count);
  /// Install one fixed port bound to (degree, channel).
  PortId add_fixed_port(DegreeIndex degree, ChannelIndex channel);
  [[nodiscard]] std::size_t port_count() const noexcept {
    return ports_.size();
  }
  [[nodiscard]] const PortState& port(PortId p) const;

  // --- configuration (EMS-invoked) ------------------------------------
  /// Express a channel between two degrees.
  [[nodiscard]] Status configure_express(ChannelIndex ch, DegreeIndex in, DegreeIndex out);
  [[nodiscard]] Status release_express(ChannelIndex ch, DegreeIndex in, DegreeIndex out);
  /// Add/drop `ch` on `degree` at local port `p`.
  [[nodiscard]] Status configure_add_drop(PortId p, DegreeIndex degree, ChannelIndex ch);
  [[nodiscard]] Status release_add_drop(PortId p);

  // --- queries ---------------------------------------------------------
  /// True if `ch` has any use (express or add/drop) on `degree`.
  [[nodiscard]] bool channel_in_use(DegreeIndex degree, ChannelIndex ch) const;
  /// Channels free on `degree`.
  [[nodiscard]] ChannelSet free_channels(DegreeIndex degree) const;
  /// Channels with any use on `degree` (the complement of free_channels
  /// within the grid), maintained incrementally on configure/release.
  [[nodiscard]] const ChannelSet& used_channels(DegreeIndex degree) const;
  /// Number of active uses across all degrees.
  [[nodiscard]] std::size_t active_uses() const;

  /// One active use, flattened for reconciliation audits.
  struct ActiveUse {
    DegreeIndex degree = -1;
    ChannelIndex channel = kNoChannel;
    bool is_express = false;
    DegreeIndex other_degree = -1;  ///< express peer (is_express only)
    PortId port;                    ///< add/drop port (!is_express only)
  };
  /// Every active use. Express uses are recorded on both member degrees;
  /// keep `degree < other_degree` to visit each cross-connect once.
  [[nodiscard]] std::vector<ActiveUse> uses() const;

  /// Invoked after every successful configuration change (express or
  /// add/drop, configure or release), once per degree the change touched,
  /// with the link that degree faces: both links of an express
  /// cross-connect, the one link of an add/drop. The NetworkModel bumps
  /// its plant version and forwards the link to its link observer, so the
  /// Inventory recomputes that link alone instead of rescanning the plant.
  using ChangeListener = std::function<void(LinkId)>;
  void set_change_listener(ChangeListener listener) {
    change_listener_ = std::move(listener);
  }

  // --- failure propagation ---------------------------------------------
  using AlarmSink = std::function<void(const Alarm&)>;
  void set_alarm_sink(AlarmSink sink) { alarm_sink_ = std::move(sink); }

  /// A fiber link on one of our degrees failed: raise per-channel LOS for
  /// every configured use on that degree. `now` stamps the alarms.
  void on_link_failed(LinkId link, SimTime now);
  void on_link_restored(LinkId link, SimTime now);

 private:
  struct Use {
    bool is_express = false;
    DegreeIndex other_degree = -1;  // express peer
    PortId port;                    // add/drop port
  };

  [[nodiscard]] bool valid_degree(DegreeIndex d) const noexcept {
    return d >= 0 && static_cast<std::size_t>(d) < degree_links_.size();
  }
  void raise(AlarmType type, LinkId link, ChannelIndex ch, SimTime now,
             std::string detail);
  void changed(DegreeIndex degree) {
    if (change_listener_)
      change_listener_(degree_links_[static_cast<std::size_t>(degree)]);
  }

  RoadmId id_;
  NodeId site_;
  WavelengthGrid grid_;
  std::vector<LinkId> degree_links_;
  std::vector<PortState> ports_;
  /// Per degree: channel -> use. `used_sets_` mirrors the key sets as
  /// bitmaps so free/used-channel queries are word ops, not map walks.
  std::vector<std::map<ChannelIndex, Use>> uses_;
  std::vector<ChannelSet> used_sets_;
  AlarmSink alarm_sink_;
  ChangeListener change_listener_;
  IdAllocator<AlarmId> alarm_ids_;
};

}  // namespace griphon::dwdm
