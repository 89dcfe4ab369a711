// Wavelength-plane fragmentation analysis.
//
// First-fit keeps the spectrum packed at setup time, but churn (releases,
// restorations, BoD windows) punches holes: a link can have plenty of free
// channels yet no *contiguous* low block, and a route can have capacity on
// every hop yet no single channel free end-to-end (wavelength continuity).
// The analyzer scores both effects from one Inventory::Snapshot:
//
//  - per-link external fragmentation: 1 - largest_free_block / free
//    (0 when the link is full or its free space is one contiguous block);
//  - per-pair stranding: a candidate route is continuity-blocked when the
//    intersection of its links' availability is empty although every link
//    individually has spare channels; a pair is stranded when all of its
//    candidates are blocked and none is feasible.
//
// The report is pure data — the ReoptService turns it into griphon_reopt_*
// gauges and the campaign trip decision. All scores are defined (no NaN)
// on degenerate inputs: empty topologies, single links, zero connections.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/inventory.hpp"
#include "core/rwa.hpp"

namespace griphon::reopt {

/// Spectral state of one live (non-failed) link.
struct LinkFragmentation {
  LinkId link{};
  std::size_t free = 0;                ///< channels available
  std::size_t used = 0;                ///< grid size minus free
  std::size_t largest_free_block = 0;  ///< longest contiguous free run
  /// External fragmentation: 1 - largest_free_block / free. Zero when the
  /// link is completely full (nothing to defragment) or completely
  /// coalesced (one free block).
  double score = 0;
};

struct FragmentationReport {
  std::vector<LinkFragmentation> links;  ///< live links, ascending id
  double mean_score = 0;                 ///< over live links; 0 when none
  double max_score = 0;
  std::size_t fragmented_links = 0;  ///< links with score > 0
  std::size_t total_free = 0;
  std::size_t total_used = 0;

  std::size_t pairs_scored = 0;
  /// Candidate routes with per-hop capacity but empty end-to-end
  /// intersection (wavelength continuity is what blocks them).
  std::size_t blocked_candidates = 0;
  /// Pairs where no candidate is feasible and at least one is
  /// continuity-blocked — demand that defragmentation could admit.
  std::size_t stranded_pairs = 0;
};

class FragmentationAnalyzer {
 public:
  explicit FragmentationAnalyzer(const core::NetworkModel* model)
      : model_(model) {}

  /// Score the wavelength plane as seen by `snap`. `rwa` supplies the
  /// candidate routes used for pair stranding (sharing its route cache
  /// with provisioning); `pairs` is the demand set to probe — typically
  /// the data-center site pairs.
  [[nodiscard]] FragmentationReport analyze(
      const core::Inventory::Snapshot& snap, const core::RwaEngine& rwa,
      const std::vector<std::pair<NodeId, NodeId>>& pairs) const;

  /// Link-plane half of the report only (no route probing): reads
  /// nothing but `snap`.
  [[nodiscard]] FragmentationReport analyze_links(
      const core::Inventory::Snapshot& snap) const;

 private:
  const core::NetworkModel* model_;
};

}  // namespace griphon::reopt
