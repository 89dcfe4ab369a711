// Optical reach and signal-quality budget.
//
// "OEO regeneration is needed when the distance between terminating nodes
// exceeds a limit for adequate signal quality, known as the optical reach"
// (paper §2.1). We model reach with a simple OSNR budget: launch OSNR minus
// per-span and per-ROADM-pass penalties must stay above the receiver
// requirement for the line rate. From the budget we derive where along a
// route regenerators must be placed.
#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"
#include "topology/graph.hpp"
#include "topology/path.hpp"

namespace griphon::dwdm {

/// Modulation/rate-dependent receiver requirements.
struct LineRateProfile {
  DataRate rate;
  double required_osnr_db;  ///< minimum OSNR at the receiver
  Distance max_reach;       ///< engineering-rule cap independent of OSNR
};

/// Engineering profiles for the rates GRIPhoN provisions. 40G needs more
/// OSNR (shorter reach) than 10G, matching deployed systems.
[[nodiscard]] LineRateProfile profile_10g();
[[nodiscard]] LineRateProfile profile_40g();
[[nodiscard]] LineRateProfile profile_100g();
[[nodiscard]] LineRateProfile profile_for(DataRate rate);

class ReachModel {
 public:
  /// OSNR at the receiver after traversing `path` transparently.
  [[nodiscard]] double osnr_at_end(const topology::Graph& g,
                                   const topology::Path& path) const;

  /// Whether `path` can be crossed without regeneration at `rate`.
  [[nodiscard]] bool feasible(const topology::Graph& g,
                              const topology::Path& path,
                              const LineRateProfile& profile) const;

  /// Split `path` into maximal transparent segments; regenerators go at the
  /// boundary nodes between consecutive segments. Each segment is expressed
  /// as the index range [first_link, last_link] into path.links.
  struct Segment {
    std::size_t first_link;
    std::size_t last_link;  // inclusive
  };
  [[nodiscard]] std::vector<Segment> segment(
      const topology::Graph& g, const topology::Path& path,
      const LineRateProfile& profile) const;

  /// Non-throwing variant of segment() for hot paths: returns nullopt where
  /// segment() would throw (a single link infeasible at this rate).
  [[nodiscard]] std::optional<std::vector<Segment>> try_segment(
      const topology::Graph& g, const topology::Path& path,
      const LineRateProfile& profile) const;

  /// Nodes (interior to the path) where a regenerator is required.
  [[nodiscard]] std::vector<NodeId> regen_sites(
      const topology::Graph& g, const topology::Path& path,
      const LineRateProfile& profile) const;

  /// Up-front admission verdict for a segmented route. Instead of probing
  /// signal quality per segment during setup (a round of management
  /// dialogues before any cross-connects), the controller decides
  /// admissibility from the same OSNR budget the RWA used — one model, no
  /// probes. A segment's margin is its receiver OSNR minus the profile
  /// requirement; a negative margin (or a reach-cap violation, reported as
  /// -inf margin) rejects the route.
  struct Admission {
    bool admitted = false;
    double worst_margin_db = 0.0;
    std::vector<double> segment_margins_db;  ///< one per transparent segment
  };
  [[nodiscard]] Admission admit(const topology::Graph& g,
                                const topology::Path& path,
                                const std::vector<Segment>& segments,
                                const LineRateProfile& profile) const;
};

}  // namespace griphon::dwdm
