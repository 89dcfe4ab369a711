#include "core/rwa.hpp"

#include <algorithm>

#include "core/network_model.hpp"
#include "telemetry/telemetry.hpp"

namespace griphon::core {

RwaEngine::RwaEngine(const NetworkModel* model, const Inventory* inventory,
                     Params params)
    : model_(model), inventory_(inventory), params_(params) {}

dwdm::ChannelSet RwaEngine::channels_for_segment(
    const Inventory::Snapshot& snap, const topology::Path& path,
    std::size_t first_link, std::size_t last_link) const {
  dwdm::ChannelSet set = dwdm::ChannelSet::all(model_->grid().count());
  for (std::size_t i = first_link; i <= last_link; ++i)
    set.intersect(snap.available_on_link(path.links[i]));
  return set;
}

dwdm::ChannelIndex RwaEngine::pick_channel(
    const dwdm::ChannelSet& candidates, const Inventory::Snapshot& snap) const {
  if (candidates.empty()) return dwdm::kNoChannel;
  if (params_.policy == WavelengthPolicy::kFirstFit) return candidates.first();
  // Most-used packs the network-wide hottest channels (maximizing reuse);
  // least-used spreads across the grid (the fragmentation-prone baseline).
  const bool want_most = params_.policy == WavelengthPolicy::kMostUsed;
  dwdm::ChannelIndex best = dwdm::kNoChannel;
  std::size_t best_usage = 0;
  candidates.for_each([&](dwdm::ChannelIndex ch) {
    const std::size_t usage = snap.channel_usage(ch);
    if (best == dwdm::kNoChannel ||
        (want_most ? usage > best_usage : usage < best_usage)) {
      best = ch;
      best_usage = usage;
    }
  });
  return best;
}

RwaEngine::TelemetryHandles RwaEngine::sync_telemetry_locked() const {
  telemetry::Telemetry* t = model_->telemetry();
  if (t == telemetry_seen_) return handles_;
  telemetry_seen_ = t;
  if (t == nullptr) {
    handles_ = TelemetryHandles{};
    return handles_;
  }
  auto& m = t->metrics();
  TelemetryHandles h;
  h.cache_hits = m.counter("griphon_rwa_route_cache_hits_total",
                           "Route-cache hits in cached_routes");
  h.cache_misses = m.counter("griphon_rwa_route_cache_misses_total",
                             "Route-cache misses (Yen's recomputed)");
  h.plans_total =
      m.counter("griphon_rwa_plans_total", "Wavelength plan attempts");
  h.plans_failed = m.counter("griphon_rwa_plans_failed_total",
                             "Plan attempts that found no viable plan");
  h.cache_evictions =
      m.counter("griphon_rwa_route_cache_evicted_total",
                "Route-cache entries evicted by incremental invalidation");
  handles_ = h;
  return handles_;
}

RwaEngine::TelemetryHandles RwaEngine::telemetry_handles() const {
  MutexLock lock(&mu_);
  return sync_telemetry_locked();
}

std::size_t RwaEngine::RouteKeyHash::operator()(
    const RouteKey& k) const noexcept {
  // FNV-1a over the key's words; equality still compares in full, so a
  // collision only costs a probe, never a wrong answer.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) noexcept {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.src);
  mix(k.dst);
  mix(k.excluded_links.size());
  for (const std::uint64_t v : k.excluded_links) mix(v);
  for (const std::uint64_t v : k.excluded_nodes) mix(v);
  return static_cast<std::size_t>(h);
}

void RwaEngine::invalidate_cache_locked(const TelemetryHandles& t) const {
  if (route_cache_version_ == model_->topology_version()) return;
  // A fiber cut only *removes* paths: an entry whose cached candidates
  // avoid every cut link is still exactly the k shortest of the reduced
  // graph, so only traversing entries need to go. A repair can surface
  // better routes for any pair, and a journal gap hides unknown changes
  // — both fall back to the old full clear.
  std::vector<NetworkModel::TopologyChange> changes;
  bool selective =
      model_->topology_changes_since(route_cache_version_, &changes);
  for (const NetworkModel::TopologyChange& change : changes)
    if (!change.failed) selective = false;
  if (selective) {
    const auto traverses_cut = [&changes](const topology::Path& p) {
      return std::any_of(
          changes.begin(), changes.end(),
          [&p](const NetworkModel::TopologyChange& change) {
            return std::find(p.links.begin(), p.links.end(), change.link) !=
                   p.links.end();
          });
    };
    for (auto it = route_cache_.begin(); it != route_cache_.end();) {
      if (std::any_of(it->second.begin(), it->second.end(), traverses_cut)) {
        if (t.cache_evictions != nullptr) t.cache_evictions->inc();
        it = route_cache_.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    route_cache_.clear();
  }
  route_cache_version_ = model_->topology_version();
}

const std::vector<topology::Path>& RwaEngine::candidate_routes(
    NodeId src, NodeId dst, const Exclusions& exclude) const {
  MutexLock lock(&mu_);
  // External callers (BoD scheduler) skip plan(), so sync here too.
  const TelemetryHandles t = sync_telemetry_locked();
  invalidate_cache_locked(t);
  RouteKey key;
  key.src = src.value();
  key.dst = dst.value();
  key.excluded_links.reserve(exclude.links.size());
  for (const LinkId l : exclude.links) key.excluded_links.push_back(l.value());
  key.excluded_nodes.reserve(exclude.nodes.size());
  for (const NodeId n : exclude.nodes) key.excluded_nodes.push_back(n.value());
  const auto [it, inserted] = route_cache_.try_emplace(std::move(key));
  if (t.cache_hits != nullptr)
    (inserted ? t.cache_misses : t.cache_hits)->inc();
  if (inserted) {
    // Same query the uncached path used to issue, so cache hits and misses
    // yield byte-identical candidate lists.
    const auto filter = [&](const topology::Link& l) {
      if (model_->link_failed(l.id)) return false;
      if (exclude.links.contains(l.id)) return false;
      if (exclude.nodes.contains(l.a) || exclude.nodes.contains(l.b)) {
        // Interior exclusion: allow links touching src/dst themselves.
        const bool endpoint_ok =
            (l.a == src || l.a == dst || !exclude.nodes.contains(l.a)) &&
            (l.b == src || l.b == dst || !exclude.nodes.contains(l.b));
        if (!endpoint_ok) return false;
      }
      return true;
    };
    it->second = topology::k_shortest_paths(model_->graph(), src, dst,
                                            params_.route_candidates,
                                            topology::distance_weight(), filter);
  }
  return it->second;
}

Result<WavelengthPlan> RwaEngine::plan(NodeId src, NodeId dst, DataRate rate,
                                       const Exclusions& exclude) const {
  const TelemetryHandles t = telemetry_handles();
  if (t.plans_total != nullptr) t.plans_total->inc();
  if (src == dst) {
    if (t.plans_failed != nullptr) t.plans_failed->inc();
    return Error{ErrorCode::kInvalidArgument, "rwa: src == dst"};
  }

  const auto profile = dwdm::profile_for(rate);

  const std::vector<topology::Path>* routes =
      &candidate_routes(src, dst, exclude);
  if (routes->empty()) {
    if (t.plans_failed != nullptr) t.plans_failed->inc();
    return Error{ErrorCode::kUnreachable, "rwa: no route survives exclusions"};
  }

  // One coherent view of availability, pools and usage for the whole
  // planning pass; every candidate route is judged against it.
  const std::shared_ptr<const Inventory::Snapshot> snap =
      inventory_->snapshot();

  Error last_error{ErrorCode::kResourceExhausted,
                   "rwa: no wavelength plan on any candidate route"};
  for (const auto& route : *routes) {
    // Transparent segmentation by optical reach.
    auto maybe_segments =
        model_->reach().try_segment(model_->graph(), route, profile);
    if (!maybe_segments) continue;  // a single span beyond reach at this rate
    const auto& segments = *maybe_segments;

    WavelengthPlan plan;
    plan.path = route;

    // Endpoint transponders.
    const auto src_ot = snap->find_free_ot(src, rate);
    const auto dst_ot = snap->find_free_ot(dst, rate);
    if (!src_ot || !dst_ot) {
      last_error = Error{ErrorCode::kResourceExhausted,
                         "rwa: no free transponder at an endpoint"};
      continue;
    }
    plan.src_ot = *src_ot;
    plan.dst_ot = *dst_ot;

    // Wavelength per segment + regen at each boundary.
    bool ok = true;
    std::set<RegenId> used_regens;
    for (std::size_t s = 0; s < segments.size() && ok; ++s) {
      const auto candidates = channels_for_segment(
          *snap, route, segments[s].first_link, segments[s].last_link);
      const dwdm::ChannelIndex ch = pick_channel(candidates, *snap);
      if (ch == dwdm::kNoChannel) {
        last_error = Error{ErrorCode::kResourceExhausted,
                           "rwa: wavelength continuity violated on segment"};
        ok = false;
        break;
      }
      plan.segments.push_back(
          SegmentPlan{segments[s].first_link, segments[s].last_link, ch});
      if (s + 1 < segments.size()) {
        const NodeId boundary = route.nodes[segments[s].last_link + 1];
        // Several boundaries may share a node only if enough regens exist;
        // `used_regens` keeps one plan from double-booking a unit.
        const auto regen = snap->find_free_regen(boundary, rate, used_regens);
        if (!regen) {
          last_error = Error{ErrorCode::kResourceExhausted,
                             "rwa: no free regenerator at segment boundary"};
          ok = false;
          break;
        }
        used_regens.insert(*regen);
        plan.regens.push_back(*regen);
      }
    }
    if (ok) return plan;
  }
  if (t.plans_failed != nullptr) t.plans_failed->inc();
  return last_error;
}

}  // namespace griphon::core
