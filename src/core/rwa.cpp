#include "core/rwa.hpp"

#include <algorithm>
#include <iterator>

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

const RwaEngine::TelemetryHandles& RwaEngine::telemetry_handles() const {
  telemetry::Telemetry* t = model_->telemetry();
  if (t == telemetry_seen_) return handles_;
  telemetry_seen_ = t;
  handles_ = TelemetryHandles{};
  if (t == nullptr) return handles_;
  auto& m = t->metrics();
  handles_.cache_hits = m.counter("griphon_rwa_route_cache_hits_total",
                                  "Route-cache hits in cached_routes");
  handles_.cache_misses = m.counter("griphon_rwa_route_cache_misses_total",
                                    "Route-cache misses (Yen's recomputed)");
  handles_.plans_total =
      m.counter("griphon_rwa_plans_total", "Wavelength plan attempts");
  handles_.plans_failed = m.counter("griphon_rwa_plans_failed_total",
                                    "Plan attempts that found no viable plan");
  handles_.cache_evictions = m.counter(
      "griphon_rwa_route_cache_evicted_total",
      "Route-cache entries evicted because a link down when they were "
      "computed was repaired");
  return handles_;
}

std::size_t RwaEngine::PairKeyHash::operator()(
    const PairKey& k) const noexcept {
  // FNV-1a over the key's words; equality still compares in full, so a
  // collision only costs a probe, never a wrong answer.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) noexcept {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.src);
  mix(k.dst);
  for (const std::uint64_t v : k.excluded_nodes) mix(v);
  return static_cast<std::size_t>(h);
}

void RwaEngine::sync_failed(const TelemetryHandles& t) const {
  if (route_cache_version_ == model_->topology_version()) return;
  std::vector<std::uint64_t> failed;
  for (const LinkId l : model_->failed_links()) failed.push_back(l.value());
  // Every entry stays exact for its key, cut or no cut. An entry computed
  // while a now-repaired link was down only serves a failure set that may
  // never recur, so it goes.
  std::vector<std::uint64_t> repaired;
  std::set_difference(failed_.begin(), failed_.end(), failed.begin(),
                      failed.end(), std::back_inserter(repaired));
  if (!repaired.empty()) {
    const auto down_when_computed = [&repaired](const RouteEntry& e) {
      return std::any_of(
          repaired.begin(), repaired.end(), [&e](std::uint64_t l) {
            return std::binary_search(e.failed.begin(), e.failed.end(), l);
          });
    };
    for (auto it = route_cache_.begin(); it != route_cache_.end();) {
      const std::size_t evicted = it->second.remove_if(down_when_computed);
      if (t.cache_evictions != nullptr && evicted > 0)
        t.cache_evictions->inc(evicted);
      it = it->second.empty() ? route_cache_.erase(it) : std::next(it);
    }
  }
  failed_ = std::move(failed);
  route_cache_version_ = model_->topology_version();
}

const std::vector<topology::Path>& RwaEngine::candidate_routes(
    NodeId src, NodeId dst, const Exclusions& exclude) const {
  // External callers (BoD scheduler) skip plan(), so sync here too.
  const TelemetryHandles& t = telemetry_handles();
  sync_failed(t);
  PairKey key;
  key.src = src.value();
  key.dst = dst.value();
  key.excluded_nodes.reserve(exclude.nodes.size());
  for (const NodeId n : exclude.nodes) key.excluded_nodes.push_back(n.value());
  std::vector<std::uint64_t> banned;  // excluded ∪ failed, sorted
  banned.reserve(exclude.links.size() + failed_.size());
  for (const LinkId l : exclude.links) banned.push_back(l.value());
  const auto failed_begin =
      banned.insert(banned.end(), failed_.begin(), failed_.end());
  std::inplace_merge(banned.begin(), failed_begin, banned.end());
  banned.erase(std::unique(banned.begin(), banned.end()), banned.end());

  // An entry serves the query when it banned a subset of the query's
  // links and none of its routes uses a link the query bans (its routes
  // never use its own banned links): the k shortest paths of the larger
  // graph then all survive in the smaller one, so they are its k
  // shortest too. An exact key (equal sets) needs no route scan.
  std::list<RouteEntry>& entries = route_cache_[std::move(key)];
  const auto uses_banned = [&banned](const topology::Path& p) {
    return std::any_of(p.links.begin(), p.links.end(), [&banned](LinkId l) {
      return std::binary_search(banned.begin(), banned.end(), l.value());
    });
  };
  for (const RouteEntry& e : entries) {
    if (!std::includes(banned.begin(), banned.end(), e.banned.begin(),
                       e.banned.end()))
      continue;
    const bool exact = e.banned.size() == banned.size();
    if (!exact && std::any_of(e.routes.begin(), e.routes.end(), uses_banned))
      continue;
    if (t.cache_hits != nullptr) t.cache_hits->inc();
    return e.routes;
  }

  if (t.cache_misses != nullptr) t.cache_misses->inc();
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
  entries.push_back(RouteEntry{
      std::move(banned), failed_,
      topology::k_shortest_paths(model_->graph(), src, dst,
                                 params_.route_candidates,
                                 topology::distance_weight(), filter)});
  return entries.back().routes;
}

Result<WavelengthPlan> RwaEngine::plan(NodeId src, NodeId dst, DataRate rate,
                                       const Exclusions& exclude) const {
  const TelemetryHandles& t = telemetry_handles();
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
