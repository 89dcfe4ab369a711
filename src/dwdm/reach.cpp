#include "dwdm/reach.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace griphon::dwdm {

namespace {

/// OSNR after the transmit amplifier.
constexpr double kLaunchOsnrDb = 35.0;
/// Noise added per ~100 km span.
constexpr double kSpanPenaltyDb = 0.35;
/// Filter narrowing per express hop.
constexpr double kRoadmPassPenaltyDb = 0.4;

}  // namespace

LineRateProfile profile_10g() {
  return LineRateProfile{rates::k10G, 12.0, Distance::km(2800)};
}
LineRateProfile profile_40g() {
  return LineRateProfile{rates::k40G, 16.0, Distance::km(1800)};
}
LineRateProfile profile_100g() {
  return LineRateProfile{rates::k100G, 18.0, Distance::km(1500)};
}

LineRateProfile profile_for(DataRate rate) {
  if (rate <= rates::k10G) return profile_10g();
  if (rate <= rates::k40G) return profile_40g();
  return profile_100g();
}

double ReachModel::osnr_at_end(const topology::Graph& g,
                               const topology::Path& path) const {
  double osnr = kLaunchOsnrDb;
  for (const LinkId lid : path.links) {
    for (const auto& span : g.link(lid).spans) {
      // Penalty scales with span length relative to the nominal 100 km.
      osnr -= kSpanPenaltyDb * (span.length.in_km() / 100.0);
    }
  }
  // Each intermediate ROADM the signal expresses through narrows the
  // passband and adds loss.
  if (path.nodes.size() > 2)
    osnr -= kRoadmPassPenaltyDb *
            static_cast<double>(path.nodes.size() - 2);
  return osnr;
}

bool ReachModel::feasible(const topology::Graph& g, const topology::Path& path,
                          const LineRateProfile& profile) const {
  if (path.length(g) > profile.max_reach) return false;
  return osnr_at_end(g, path) >= profile.required_osnr_db;
}

std::optional<std::vector<ReachModel::Segment>> ReachModel::try_segment(
    const topology::Graph& g, const topology::Path& path,
    const LineRateProfile& profile) const {
  std::vector<Segment> segments;
  if (path.empty()) return segments;

  std::size_t start = 0;
  while (start < path.links.size()) {
    // Greedily extend the transparent segment while it stays feasible.
    // Length and OSNR accumulate link by link in the same order feasible()
    // sums them over a rebuilt sub-path, so the decisions are identical —
    // without materializing O(segment-length) sub-paths per trial.
    std::size_t end = start;
    bool first_link_feasible = false;
    Distance length{};
    double osnr = kLaunchOsnrDb;
    for (std::size_t trial = start; trial < path.links.size(); ++trial) {
      const topology::Link& l = g.link(path.links[trial]);
      length += l.length();
      for (const auto& span : l.spans)
        osnr -= kSpanPenaltyDb * (span.length.in_km() / 100.0);
      double osnr_end = osnr;
      const std::size_t sub_nodes = trial - start + 2;
      if (sub_nodes > 2)
        osnr_end -= kRoadmPassPenaltyDb *
                    static_cast<double>(sub_nodes - 2);
      if (length > profile.max_reach || osnr_end < profile.required_osnr_db)
        break;
      end = trial;
      if (trial == start) first_link_feasible = true;
    }
    // A single link that is itself infeasible means the route cannot be
    // built at this rate at all (regens only help between links).
    if (end == start && !first_link_feasible) return std::nullopt;
    segments.push_back(Segment{start, end});
    start = end + 1;
  }
  return segments;
}

std::vector<ReachModel::Segment> ReachModel::segment(
    const topology::Graph& g, const topology::Path& path,
    const LineRateProfile& profile) const {
  auto segments = try_segment(g, path, profile);
  if (!segments)
    throw std::runtime_error(
        "ReachModel::segment: single span exceeds reach at this rate");
  return *std::move(segments);
}

ReachModel::Admission ReachModel::admit(
    const topology::Graph& g, const topology::Path& path,
    const std::vector<Segment>& segments,
    const LineRateProfile& profile) const {
  Admission verdict;
  verdict.admitted = true;
  verdict.worst_margin_db = std::numeric_limits<double>::infinity();
  for (const Segment& seg : segments) {
    Distance length{};
    double osnr = kLaunchOsnrDb;
    for (std::size_t li = seg.first_link;
         li <= seg.last_link && li < path.links.size(); ++li) {
      const topology::Link& l = g.link(path.links[li]);
      length += l.length();
      for (const auto& span : l.spans)
        osnr -= kSpanPenaltyDb * (span.length.in_km() / 100.0);
    }
    const std::size_t seg_nodes = seg.last_link - seg.first_link + 2;
    if (seg_nodes > 2)
      osnr -= kRoadmPassPenaltyDb *
              static_cast<double>(seg_nodes - 2);
    double margin = osnr - profile.required_osnr_db;
    if (length > profile.max_reach)
      margin = -std::numeric_limits<double>::infinity();
    verdict.segment_margins_db.push_back(margin);
    verdict.worst_margin_db = std::min(verdict.worst_margin_db, margin);
    if (margin < 0.0) verdict.admitted = false;
  }
  if (verdict.segment_margins_db.empty()) verdict.worst_margin_db = 0.0;
  return verdict;
}

std::vector<NodeId> ReachModel::regen_sites(
    const topology::Graph& g, const topology::Path& path,
    const LineRateProfile& profile) const {
  std::vector<NodeId> sites;
  const auto segments = segment(g, path, profile);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // Boundary node after the last link of segment i.
    sites.push_back(path.nodes[segments[i].last_link + 1]);
  }
  return sites;
}

}  // namespace griphon::dwdm
