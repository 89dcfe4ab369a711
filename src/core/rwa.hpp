// Routing and Wavelength Assignment (RWA).
//
// Given a connection request between two core PoPs at a wavelength rate,
// produce a full provisioning plan: the fiber route, its division into
// transparent segments (regenerators at boundaries, from the reach model),
// one wavelength per segment honoring wavelength continuity, and the
// concrete OT/regen devices to use.
//
// Route candidates come from Yen's k-shortest paths; wavelength assignment
// is pluggable (first-fit packs the spectrum from the bottom; most-used
// maximizes reuse, the classic blocking-reduction heuristic).
//
// Planning state (availability, pools, usage) comes from one
// Inventory::Snapshot taken at the top of plan(): the inventory keeps it
// current from observer-maintained device free bitmaps, per-link deltas
// and the reservation overlay, so every candidate route is judged against
// the same state. Candidate routes come from a cache keyed on everything
// Yen's sees — the pair, the excluded nodes and the banned links
// (exclusions plus currently failed links) — so an entry is never stale
// (DESIGN.md §7).
#pragma once

#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/inventory.hpp"
#include "dwdm/reach.hpp"
#include "topology/path.hpp"

namespace griphon::telemetry {
class Counter;
}  // namespace griphon::telemetry

namespace griphon::core {

enum class WavelengthPolicy {
  kFirstFit,   ///< lowest available channel (packs the spectrum)
  kMostUsed,   ///< channel already busiest network-wide (maximal reuse)
  kLeastUsed,  ///< channel least used network-wide (spreads; the classic
               ///< fragmentation-prone baseline, kept for the ablation)
};

/// One transparent segment of a planned lightpath.
struct SegmentPlan {
  std::size_t first_link = 0;  ///< index into path.links
  std::size_t last_link = 0;   ///< inclusive
  dwdm::ChannelIndex channel = dwdm::kNoChannel;
};

/// Complete provisioning plan for a wavelength connection.
struct WavelengthPlan {
  topology::Path path;
  std::vector<SegmentPlan> segments;   ///< >= 1, in path order
  TransponderId src_ot;
  TransponderId dst_ot;
  std::vector<RegenId> regens;         ///< segments.size() - 1 entries

  [[nodiscard]] std::size_t hops() const noexcept {
    return path.links.size();
  }
};

/// Constraints a plan must avoid (failed plant is excluded automatically).
struct Exclusions {
  std::set<LinkId> links;
  std::set<NodeId> nodes;
};

class RwaEngine {
 public:
  struct Params {
    WavelengthPolicy policy = WavelengthPolicy::kFirstFit;
    std::size_t route_candidates = 4;  ///< k in k-shortest-paths
  };

  RwaEngine(const NetworkModel* model, const Inventory* inventory,
            Params params);

  /// Plan a wavelength connection of `rate` between two core PoPs.
  [[nodiscard]] Result<WavelengthPlan> plan(
      NodeId src, NodeId dst, DataRate rate,
      const Exclusions& exclude = {}) const;

  /// Channels usable on every link of `path[first..last]`, as seen by the
  /// given snapshot.
  [[nodiscard]] dwdm::ChannelSet channels_for_segment(
      const Inventory::Snapshot& snap, const topology::Path& path,
      std::size_t first_link, std::size_t last_link) const;

  /// Candidate routes for (src, dst) under `exclude`, memoized. Routes
  /// depend only on the graph, k, the weight function and the banned
  /// links and nodes; k and weights are fixed per engine, so an entry is
  /// keyed on (src, dst, excluded nodes, excluded links ∪ failed links)
  /// and is never stale. A query with no exact entry reuses one whose
  /// banned links are a subset of its own when none of the cached routes
  /// uses a link in the difference: banning links no route uses leaves
  /// the k shortest unchanged. So steady-state planning, restoration
  /// (which plans around the same failed links repeatedly) and planning
  /// after a repair skip Yen's. Public so the BoD TransferScheduler can
  /// share routes without planning wavelengths. The returned reference
  /// stays valid until the entry is evicted — only a repair of a link
  /// that was down when the entry was computed evicts it — so callers use
  /// it within one planning pass.
  [[nodiscard]] const std::vector<topology::Path>& candidate_routes(
      NodeId src, NodeId dst, const Exclusions& exclude = {}) const;

 private:
  /// Metric handles resolved against the current telemetry sink.
  struct TelemetryHandles {
    telemetry::Counter* cache_hits = nullptr;
    telemetry::Counter* cache_misses = nullptr;
    telemetry::Counter* plans_total = nullptr;
    telemetry::Counter* plans_failed = nullptr;
    telemetry::Counter* cache_evictions = nullptr;
  };

  /// Bring `failed_` up to the model's topology_version() and evict the
  /// entries computed while a now-repaired link was down: they are still
  /// correct for their key, but that failure set may never recur.
  void sync_failed(const TelemetryHandles& t) const;

  [[nodiscard]] dwdm::ChannelIndex pick_channel(
      const dwdm::ChannelSet& candidates,
      const Inventory::Snapshot& snap) const;

  /// Refresh cached metric handles when the model's telemetry sink changes
  /// (attach/detach). Keeps the steady-state cost of counting at one
  /// pointer comparison + one branch per plan() call.
  [[nodiscard]] const TelemetryHandles& telemetry_handles() const;

  /// Per-pair index key: the part of a query an entry must match exactly
  /// (compared, not just hashed, so a hash collision can never serve the
  /// wrong candidate list).
  struct PairKey {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::vector<std::uint64_t> excluded_nodes;  ///< sorted (set order)
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept;
  };
  /// One Yen's run. `banned` is every link its filter rejected: the
  /// query's excluded links plus `failed`, the links down when it ran.
  /// Both sorted.
  struct RouteEntry {
    std::vector<std::uint64_t> banned;
    std::vector<std::uint64_t> failed;
    std::vector<topology::Path> routes;
  };

  const NetworkModel* model_;
  const Inventory* inventory_;
  Params params_;

  // Entries per pair, oldest first; a list so references handed out by
  // candidate_routes() survive later insertions.
  mutable std::unordered_map<PairKey, std::list<RouteEntry>, PairKeyHash>
      route_cache_;
  // The model's failed links (sorted ids) as of route_cache_version_.
  mutable std::vector<std::uint64_t> failed_;
  mutable std::uint64_t route_cache_version_ = 0;

  // Metric handles cached against the sink they came from (plan() is the
  // provisioning hot path; see telemetry_handles()).
  mutable const void* telemetry_seen_ = nullptr;
  mutable TelemetryHandles handles_;
};

}  // namespace griphon::core
