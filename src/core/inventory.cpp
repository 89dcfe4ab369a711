#include "core/inventory.hpp"

#include <algorithm>

namespace griphon::core {

namespace {
/// Tuned-but-inactive OTs stay in the shared pool (the laser is lit but the
/// transponder carries nothing; it retunes on next use).
bool ot_is_free(const dwdm::Transponder& ot) {
  return ot.state() == dwdm::Transponder::State::kIdle ||
         ot.state() == dwdm::Transponder::State::kTuned;
}
}  // namespace

Inventory::~Inventory() {
  if (listening_ != nullptr) listening_->set_device_observers({}, {}, {});
}

void Inventory::attach_device_listeners(NetworkModel* model) {
  // Changes made before the attach went unobserved: the next snapshot()
  // rebuilds, and from then on every change reaches an observer.
  built_ = false;
  listening_ = model;
  model->set_device_observers(
      [this](const dwdm::Transponder& ot) { on_ot_changed(ot); },
      [this](const dwdm::Regenerator& regen) { on_regen_changed(regen); },
      [this](LinkId link) { on_link_changed(link); });
}

void Inventory::on_ot_changed(const dwdm::Transponder& ot) {
  if (!built_) return;  // the next snapshot() scans from scratch anyway
  if (ot_is_free(ot))
    detail::bit_set(ot_device_free_bits_, ot.id().value());
  else
    detail::bit_clear(ot_device_free_bits_, ot.id().value());
  // The observer fires after the model bumped device_version(), so the
  // incrementally-maintained bits are exactly the state at that version
  // and the next snapshot() skips the full rebuild.
  built_device_version_ = model_->device_version();
  overlay_dirty_ = true;
}

void Inventory::on_regen_changed(const dwdm::Regenerator& regen) {
  if (!built_) return;
  if (!regen.in_use())
    detail::bit_set(regen_device_free_bits_, regen.id().value());
  else
    detail::bit_clear(regen_device_free_bits_, regen.id().value());
  built_device_version_ = model_->device_version();
  overlay_dirty_ = true;
}

void Inventory::on_link_changed(LinkId link) {
  if (!built_ || link.value() >= device_avail_.size()) return;
  refresh_link(link);
  // The observer fires after the model bumped plant_version() or
  // topology_version(), and every change since the attach reaches an
  // observer, so the built state is exactly the state at these versions
  // and the next snapshot() skips the full rebuild.
  built_plant_version_ = model_->plant_version();
  built_topology_version_ = model_->topology_version();
  overlay_dirty_ = true;
}

// --- Snapshot reads ---------------------------------------------------------

std::optional<TransponderId> Inventory::Snapshot::find_free_ot(
    NodeId node, DataRate min_rate) const {
  if (node.value() >= pools_->ots_by_site.size()) return std::nullopt;
  // Sorted by (line_rate, id): the first free adequate entry is the
  // smallest adequate line rate — don't burn a 40G transponder on a 10G
  // service while a 10G unit sits idle.
  for (const OtEntry& e : pools_->ots_by_site[node.value()]) {
    if (e.rate < min_rate) continue;
    if (!detail::bit_test(ot_free_bits_, e.id.value())) continue;
    return e.id;
  }
  return std::nullopt;
}

std::size_t Inventory::Snapshot::free_ot_count(NodeId node,
                                               DataRate min_rate) const {
  if (node.value() >= pools_->ots_by_site.size()) return 0;
  std::size_t n = 0;
  for (const OtEntry& e : pools_->ots_by_site[node.value()])
    if (e.rate >= min_rate && detail::bit_test(ot_free_bits_, e.id.value()))
      ++n;
  return n;
}

std::optional<RegenId> Inventory::Snapshot::find_free_regen(
    NodeId node, DataRate min_rate, const std::set<RegenId>& exclude) const {
  if (node.value() >= pools_->regens_by_site.size()) return std::nullopt;
  for (const RegenEntry& e : pools_->regens_by_site[node.value()]) {
    if (!detail::bit_test(regen_free_bits_, e.id.value())) continue;
    if (e.rate < min_rate) continue;
    if (exclude.contains(e.id)) continue;
    return e.id;
  }
  return std::nullopt;
}

std::size_t Inventory::Snapshot::free_regen_count(NodeId node,
                                                  DataRate min_rate) const {
  if (node.value() >= pools_->regens_by_site.size()) return 0;
  std::size_t n = 0;
  for (const RegenEntry& e : pools_->regens_by_site[node.value()])
    if (e.rate >= min_rate && detail::bit_test(regen_free_bits_, e.id.value()))
      ++n;
  return n;
}

// --- reservation overlay ----------------------------------------------------

dwdm::ChannelSet& Inventory::reserved_on(LinkId link) {
  if (link.value() >= reserved_by_link_.size())
    reserved_by_link_.resize(link.value() + 1);
  return reserved_by_link_[link.value()];
}

void Inventory::reserve_channel(LinkId link, dwdm::ChannelIndex ch) {
  dwdm::ChannelSet& set = reserved_on(link);
  if (!set.contains(ch)) {
    set.add(ch);
    ++channel_reservation_count_;
    if (built_ && link.value() < net_avail_.size())
      net_avail_[link.value()].remove(ch);
    overlay_dirty_ = true;
  }
}

void Inventory::release_channel(LinkId link, dwdm::ChannelIndex ch) {
  if (link.value() >= reserved_by_link_.size()) return;
  dwdm::ChannelSet& set = reserved_by_link_[link.value()];
  if (set.contains(ch)) {
    set.remove(ch);
    --channel_reservation_count_;
    // Back into the net availability iff the device layer still offers it.
    if (built_ && link.value() < net_avail_.size() &&
        device_avail_[link.value()].contains(ch))
      net_avail_[link.value()].add(ch);
    overlay_dirty_ = true;
  }
}

bool Inventory::channel_reserved(LinkId link, dwdm::ChannelIndex ch) const {
  return link.value() < reserved_by_link_.size() &&
         reserved_by_link_[link.value()].contains(ch);
}

void Inventory::reserve_ot(TransponderId id) {
  if (!detail::bit_test(reserved_ot_bits_, id.value())) {
    detail::bit_set(reserved_ot_bits_, id.value());
    ++reserved_ot_count_;
    overlay_dirty_ = true;
  }
}

void Inventory::release_ot(TransponderId id) {
  if (detail::bit_test(reserved_ot_bits_, id.value())) {
    detail::bit_clear(reserved_ot_bits_, id.value());
    --reserved_ot_count_;
    overlay_dirty_ = true;
  }
}

void Inventory::reserve_regen(RegenId id) {
  if (!detail::bit_test(reserved_regen_bits_, id.value())) {
    detail::bit_set(reserved_regen_bits_, id.value());
    ++reserved_regen_count_;
    overlay_dirty_ = true;
  }
}

void Inventory::release_regen(RegenId id) {
  if (detail::bit_test(reserved_regen_bits_, id.value())) {
    detail::bit_clear(reserved_regen_bits_, id.value());
    --reserved_regen_count_;
    overlay_dirty_ = true;
  }
}

std::size_t Inventory::reservations() const {
  return channel_reservation_count_ + reserved_ot_count_ +
         reserved_regen_count_;
}

// --- snapshot build path ----------------------------------------------------

dwdm::ChannelSet Inventory::device_availability(LinkId link) const {
  if (model_->link_failed(link)) return {};
  const auto& l = model_->graph().link(link);
  const auto& ra = model_->roadm_at(l.a);
  const auto& rb = model_->roadm_at(l.b);
  const auto da = ra.degree_for(link);
  const auto db = rb.degree_for(link);
  if (!da || !db) return {};
  dwdm::ChannelSet set = ra.free_channels(*da);
  set.intersect(rb.free_channels(*db));
  return set;
}

void Inventory::ensure_pools() const {
  const auto& ots = model_->ots();
  const auto& regens = model_->regens();
  const std::size_t sites = model_->graph().nodes().size();
  if (pools_ && pools_->ots_by_site.size() == sites &&
      pools_->ot_count == ots.size() &&
      pools_->regens_by_site.size() == sites &&
      pools_->regen_count == regens.size())
    return;
  auto pools = std::make_shared<PoolIndex>();
  pools->ots_by_site.assign(sites, {});
  for (const auto& ot : ots)
    if (ot->site().value() < sites)
      pools->ots_by_site[ot->site().value()].push_back(
          Snapshot::OtEntry{ot->line_rate(), ot->id()});
  for (auto& pool : pools->ots_by_site)
    std::sort(pool.begin(), pool.end(),
              [](const Snapshot::OtEntry& a, const Snapshot::OtEntry& b) {
                if (a.rate != b.rate) return a.rate < b.rate;
                return a.id < b.id;
              });
  pools->ot_count = ots.size();
  pools->regens_by_site.assign(sites, {});
  for (const auto& regen : regens)
    if (regen->site().value() < sites)
      pools->regens_by_site[regen->site().value()].push_back(
          Snapshot::RegenEntry{regen->line_rate(), regen->id()});
  pools->regen_count = regens.size();
  pools_ = std::move(pools);
}

dwdm::ChannelSet Inventory::a_end_used(LinkId link) const {
  const auto& roadm = model_->roadm_at(model_->graph().link(link).a);
  const auto degree = roadm.degree_for(link);
  if (!degree) return {};
  return roadm.used_channels(*degree);
}

void Inventory::refresh_link(LinkId link) const {
  const std::size_t i = link.value();
  device_avail_[i] = device_availability(link);
  net_avail_[i] = device_avail_[i];
  if (i < reserved_by_link_.size())
    net_avail_[i].subtract(reserved_by_link_[i]);

  const dwdm::ChannelSet used = a_end_used(link);
  if (used == a_end_used_[i]) return;
  // Copy-on-write: a handed-out snapshot may still share the table.
  if (usage_.use_count() > 1)
    usage_ = std::make_shared<std::vector<std::size_t>>(*usage_);
  std::vector<std::size_t>& table = *usage_;
  dwdm::ChannelSet added = used;
  added.subtract(a_end_used_[i]);
  added.for_each([&table](dwdm::ChannelIndex ch) {
    if (static_cast<std::size_t>(ch) < table.size()) ++table[ch];
  });
  dwdm::ChannelSet removed = a_end_used_[i];
  removed.subtract(used);
  removed.for_each([&table](dwdm::ChannelIndex ch) {
    if (static_cast<std::size_t>(ch) < table.size()) --table[ch];
  });
  a_end_used_[i] = used;
}

void Inventory::rebuild() const {
  ensure_pools();
  const auto& links = model_->graph().links();
  device_avail_.assign(links.size(), {});
  net_avail_.assign(links.size(), {});
  a_end_used_.assign(links.size(), {});
  // A fresh table, never one a handed-out snapshot shares.
  usage_ = std::make_shared<std::vector<std::size_t>>(model_->grid().count(),
                                                      0);
  for (const auto& link : links) refresh_link(link.id);
  ot_device_free_bits_.clear();
  for (const auto& ot : model_->ots())
    if (ot_is_free(*ot)) detail::bit_set(ot_device_free_bits_, ot->id().value());
  regen_device_free_bits_.clear();
  for (const auto& regen : model_->regens())
    if (!regen->in_use())
      detail::bit_set(regen_device_free_bits_, regen->id().value());
  built_plant_version_ = model_->plant_version();
  built_topology_version_ = model_->topology_version();
  built_device_version_ = model_->device_version();
  built_ = true;
}

void Inventory::assemble() const {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->avail_ = net_avail_;
  snap->pools_ = pools_;
  snap->usage_ = usage_;
  // free = device-free AND NOT reserved, word-wise over the id bitmaps.
  snap->ot_free_bits_ = ot_device_free_bits_;
  for (std::size_t w = 0;
       w < snap->ot_free_bits_.size() && w < reserved_ot_bits_.size(); ++w)
    snap->ot_free_bits_[w] &= ~reserved_ot_bits_[w];
  snap->regen_free_bits_ = regen_device_free_bits_;
  for (std::size_t w = 0;
       w < snap->regen_free_bits_.size() && w < reserved_regen_bits_.size();
       ++w)
    snap->regen_free_bits_[w] &= ~reserved_regen_bits_[w];
  current_ = std::move(snap);
  overlay_dirty_ = false;
}

std::shared_ptr<const Inventory::Snapshot> Inventory::snapshot() const {
  const bool pools_current =
      pools_ && pools_->ot_count == model_->ots().size() &&
      pools_->regen_count == model_->regens().size() &&
      pools_->ots_by_site.size() == model_->graph().nodes().size();
  const bool stale = !built_ || !pools_current ||
                     built_plant_version_ != model_->plant_version() ||
                     built_topology_version_ != model_->topology_version() ||
                     built_device_version_ != model_->device_version();
  if (stale) rebuild();
  if (stale || overlay_dirty_ || !current_) assemble();
  return current_;
}

}  // namespace griphon::core
