// Controller inventory: the GRIPhoN controller's view of network resources.
//
// Device state is authoritative (the ROADMs/OTs know what is configured);
// the inventory adds a *reservation overlay* for resources committed to
// in-flight setups whose EMS commands have not landed yet, so two
// concurrent setups never pick the same wavelength, OT or regenerator.
//
// Planning state is read only through `Inventory::Snapshot`: an immutable
// view of per-link channel availability (device state minus
// reservations), free-OT/regen bitmaps over per-site pools, and the
// per-channel usage table. `snapshot()` hands out the current view and
// builds a new one only when something moved (see DESIGN.md "Inventory
// indexing invariants"):
//  * channel reservations live in a per-link ChannelSet and are applied
//    to the incrementally-kept net availability in O(1) per change,
//  * OT/regen lifecycle transitions reach the free bitmaps through the
//    model's device observers (attach_device_listeners), O(1) each,
//  * ROADM cross-connects and fiber cuts/repairs reach the inventory
//    through the model's link observer, which recomputes that one link's
//    availability and usage contribution in O(channels/64),
//  * the first snapshot, pool growth, or a model version change no
//    observer reported force one full rebuild from the model.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/network_model.hpp"
#include "dwdm/wavelength.hpp"

namespace griphon::core {

namespace detail {
/// Grow-on-demand bitmaps keyed by device id value; back the O(1)
/// reserved/free checks behind the pool queries and the snapshot.
[[nodiscard]] inline bool bit_test(const std::vector<std::uint64_t>& bits,
                                   std::uint64_t i) noexcept {
  const std::size_t word = static_cast<std::size_t>(i / 64);
  return word < bits.size() && ((bits[word] >> (i % 64)) & 1U) != 0;
}
inline void bit_set(std::vector<std::uint64_t>& bits, std::uint64_t i) {
  const std::size_t word = static_cast<std::size_t>(i / 64);
  if (word >= bits.size()) bits.resize(word + 1, 0);
  bits[word] |= std::uint64_t{1} << (i % 64);
}
inline void bit_clear(std::vector<std::uint64_t>& bits,
                      std::uint64_t i) noexcept {
  const std::size_t word = static_cast<std::size_t>(i / 64);
  if (word < bits.size()) bits[word] &= ~(std::uint64_t{1} << (i % 64));
}
}  // namespace detail

class Inventory {
 public:
  /// Immutable read view of planning state: per-link channel availability
  /// (device state minus reservations), free-OT/regen bitmaps over
  /// (rate, id)-sorted site pools, and the per-channel usage table. Once
  /// handed out it is never written again and never reads the
  /// NetworkModel, so one planning pass sees one coherent state.
  class Snapshot {
   public:
    /// Channels usable on `link`: free on the facing degree of both end
    /// ROADMs and not reserved. Empty if the link is failed.
    [[nodiscard]] dwdm::ChannelSet available_on_link(LinkId link) const {
      if (link.value() >= avail_.size()) return {};
      return avail_[link.value()];
    }

    /// An idle, unreserved OT at `node` with line rate >= `min_rate`: the
    /// smallest adequate rate, lowest id first.
    [[nodiscard]] std::optional<TransponderId> find_free_ot(
        NodeId node, DataRate min_rate) const;
    [[nodiscard]] std::size_t free_ot_count(NodeId node,
                                            DataRate min_rate) const;

    /// An unused, unreserved regenerator at `node`, skipping any id in
    /// `exclude` (a plan may place several regens at one site).
    [[nodiscard]] std::optional<RegenId> find_free_regen(
        NodeId node, DataRate min_rate,
        const std::set<RegenId>& exclude = {}) const;
    [[nodiscard]] std::size_t free_regen_count(NodeId node,
                                               DataRate min_rate) const;

    /// Free OTs / regens over every site and rate: the sum of
    /// free_ot_count / free_regen_count over all sites at rate zero, as a
    /// popcount of the free bitmaps.
    [[nodiscard]] std::size_t free_ot_total() const noexcept {
      return popcount(ot_free_bits_);
    }
    [[nodiscard]] std::size_t free_regen_total() const noexcept {
      return popcount(regen_free_bits_);
    }

    /// Number of links where channel `ch` is configured — input to the
    /// most-/least-used wavelength-assignment policies.
    [[nodiscard]] std::size_t channel_usage(dwdm::ChannelIndex ch) const {
      if (ch < 0 || static_cast<std::size_t>(ch) >= usage_->size()) return 0;
      return (*usage_)[static_cast<std::size_t>(ch)];
    }

   private:
    friend class Inventory;
    Snapshot() = default;

    static std::size_t popcount(
        const std::vector<std::uint64_t>& bits) noexcept {
      std::size_t n = 0;
      for (const std::uint64_t w : bits)
        n += static_cast<std::size_t>(std::popcount(w));
      return n;
    }

    // Site pools, shared immutably with the inventory. Entries carry the
    // devices' immutable attributes, so reads never touch a device.
    struct OtEntry {
      DataRate rate{};
      TransponderId id{};
    };
    struct RegenEntry {
      DataRate rate{};
      RegenId id{};
    };
    struct PoolIndex {
      std::vector<std::vector<OtEntry>> ots_by_site;
      std::vector<std::vector<RegenEntry>> regens_by_site;
      std::size_t ot_count = 0;
      std::size_t regen_count = 0;
    };

    std::vector<dwdm::ChannelSet> avail_;  // by link index
    std::shared_ptr<const PoolIndex> pools_;
    std::shared_ptr<const std::vector<std::size_t>> usage_;
    std::vector<std::uint64_t> ot_free_bits_;     // by OT id value
    std::vector<std::uint64_t> regen_free_bits_;  // by regen id value
  };

  explicit Inventory(const NetworkModel* model) : model_(model) {}
  ~Inventory();

  Inventory(const Inventory&) = delete;
  Inventory& operator=(const Inventory&) = delete;

  /// Register for per-device and per-link change callbacks on `model` (the
  /// same deployment this inventory reads). From then on OT/regen
  /// lifecycle transitions update the snapshot free bitmaps in O(1), and
  /// each ROADM degree a cross-connect touches, or each cut or repaired
  /// fiber, updates that one link's availability and usage contribution.
  /// Changes made before the attach went unobserved, so the next
  /// snapshot() rebuilds once; no later change forces a full rescan of the
  /// plant. The model has one slot per observer kind; the controller's
  /// inventory claims them, and the destructor detaches.
  void attach_device_listeners(NetworkModel* model);

  // --- reservation overlay ------------------------------------------------
  void reserve_channel(LinkId link, dwdm::ChannelIndex ch);
  void release_channel(LinkId link, dwdm::ChannelIndex ch);
  [[nodiscard]] bool channel_reserved(LinkId link,
                                      dwdm::ChannelIndex ch) const;
  void reserve_ot(TransponderId id);
  void release_ot(TransponderId id);
  void reserve_regen(RegenId id);
  void release_regen(RegenId id);

  [[nodiscard]] std::size_t reservations() const;

  // --- read snapshot ------------------------------------------------------
  /// Refresh-if-stale and return the current snapshot — the only read
  /// path for planning state. Rebuilds from the NetworkModel when the
  /// model's version stamps moved; O(1) when nothing changed since the
  /// last call; overlay-only churn assembles a new view from the
  /// incrementally-maintained state without touching the model.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

 private:
  using PoolIndex = Snapshot::PoolIndex;

  /// Grow-on-demand access to the per-link reservation set.
  dwdm::ChannelSet& reserved_on(LinkId link);

  /// Device-only availability on a link (no reservation overlay) — pure
  /// model read for the rebuild path.
  [[nodiscard]] dwdm::ChannelSet device_availability(LinkId link) const;

  /// O(1) device-free-bit maintenance off the model's change observers
  /// (attach_device_listeners). Fires after the model bumped
  /// device_version().
  void on_ot_changed(const dwdm::Transponder& ot);
  void on_regen_changed(const dwdm::Regenerator& regen);
  /// Per-link delta off the model's link observer: fires after the model
  /// bumped plant_version() (a ROADM degree facing `link` changed) or
  /// topology_version() (`link` was cut or repaired).
  void on_link_changed(LinkId link);

  /// Channels in use on the degree facing `link` at its a-end ROADM — the
  /// link's contribution to the usage table.
  [[nodiscard]] dwdm::ChannelSet a_end_used(LinkId link) const;
  /// Recompute one link's device and net availability and move its usage
  /// contribution to the a-end ROADM's current used set.
  void refresh_link(LinkId link) const;

  void ensure_pools() const;
  /// Full rebuild of the derived planning state from the model (link
  /// availability, device free bitmaps, pools, usage table).
  void rebuild() const;
  /// Assemble a fresh immutable Snapshot from current state.
  void assemble() const;

  const NetworkModel* model_;
  /// Non-null while this inventory holds the model's device-observer
  /// slot (used to detach on destruction).
  NetworkModel* listening_ = nullptr;

  // Reservation overlay. `reserved_by_link_` is indexed by link id value;
  // `channel_reservation_count_` keeps reservations() O(1). OT/regen
  // reservations are bitmaps keyed by id value with explicit counts.
  std::vector<dwdm::ChannelSet> reserved_by_link_;
  std::size_t channel_reservation_count_ = 0;
  std::vector<std::uint64_t> reserved_ot_bits_;
  std::size_t reserved_ot_count_ = 0;
  std::vector<std::uint64_t> reserved_regen_bits_;
  std::size_t reserved_regen_count_ = 0;

  // Per-site device pools, built lazily from the model (sites are fixed at
  // model construction; pools are rebuilt if devices were added since).
  // OTs are sorted by (line_rate, id) so the first free adequate entry is
  // the smallest adequate rate with the lowest id — the same pick the
  // old full scan made. Regens keep id order. Shared immutably with
  // handed-out snapshots.
  mutable std::shared_ptr<const PoolIndex> pools_;

  // Per-channel usage table (device state only, reservations excluded):
  // the number of links whose a-end degree uses each channel.
  // `a_end_used_` (by link index) holds the used set each link last
  // contributed, so a link delta edits only the channels that moved.
  // Copy-on-write: handed-out snapshots share the table immutably, so a
  // delta copies it first whenever a snapshot still holds it.
  mutable std::shared_ptr<std::vector<std::size_t>> usage_;
  mutable std::vector<dwdm::ChannelSet> a_end_used_;

  // Incrementally-maintained snapshot ingredients, valid while the model
  // version stamps below match the model. `device_avail_` is device-only
  // per-link availability; `net_avail_` is device minus reservations and
  // is what assemble() copies into the snapshot.
  mutable bool built_ = false;
  mutable std::vector<dwdm::ChannelSet> device_avail_;
  mutable std::vector<dwdm::ChannelSet> net_avail_;
  mutable std::vector<std::uint64_t> ot_device_free_bits_;
  mutable std::vector<std::uint64_t> regen_device_free_bits_;
  mutable std::uint64_t built_plant_version_ = 0;
  mutable std::uint64_t built_topology_version_ = 0;
  mutable std::uint64_t built_device_version_ = 0;

  // The current snapshot; `overlay_dirty_` is set when the overlay or the
  // device free bits changed since it was assembled.
  mutable bool overlay_dirty_ = false;
  mutable std::shared_ptr<const Snapshot> current_;
};

}  // namespace griphon::core
