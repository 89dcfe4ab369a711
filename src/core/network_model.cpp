#include "core/network_model.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace griphon::core {

NetworkModel::NetworkModel(sim::Engine* engine, topology::Graph graph,
                           Config config)
    : engine_(engine), graph_(std::move(graph)), config_(config),
      grid_(config.channels),
      link_failed_(graph_.links().size(), false) {
  // One ROADM (with degrees matching the node's links) and one FXC per node.
  for (const auto& node : graph_.nodes()) {
    auto roadm = std::make_unique<dwdm::Roadm>(RoadmId{node.id.value()},
                                               node.id, grid_);
    for (const LinkId link : graph_.links_at(node.id))
      roadm->attach_degree(link);
    roadm->set_change_listener([this](LinkId link) {
      ++plant_version_;
      link_changed(link);
    });
    roadms_.push_back(std::move(roadm));
    fxcs_.push_back(std::make_unique<fxc::Fxc>(
        FxcId{node.id.value()}, node.id, config_.fxc_ports_per_node));
  }

  if (config_.with_otn) {
    otn_ = std::make_unique<otn::OtnLayer>(&graph_);
    for (const auto& node : graph_.nodes())
      otn_->add_switch(node.id, config_.otn_client_ports);
    restorer_ = std::make_unique<otn::MeshRestorer>(engine_, otn_.get());
  }

  // EMS domains: ROADM (also OTs/regens/power), FXC, OTN, NTE.
  auto make_ems = [&](std::unique_ptr<proto::ControlChannel>& chan,
                      std::unique_ptr<ems::EmsServer>& server,
                      std::unique_ptr<proto::RequestClient>& client,
                      const std::string& name) {
    chan = std::make_unique<proto::ControlChannel>(
        engine_, proto::ControlChannel::Params{});
    server = std::make_unique<ems::EmsServer>(engine_, &chan->b(),
                                              config_.ems_profile, name);
    proto::RequestClient::Params params;
    params.timeout = seconds(30);  // optical tasks run for many seconds
    params.max_attempts = 4;
    client = std::make_unique<proto::RequestClient>(engine_, &chan->a(),
                                                    params);
  };
  make_ems(roadm_chan_, roadm_ems_, roadm_client_, "roadm-ems");
  make_ems(fxc_chan_, fxc_ems_, fxc_client_, "fxc-ems");
  make_ems(otn_chan_, otn_ems_, otn_client_, "otn-ems");
  make_ems(nte_chan_, nte_ems_, nte_client_, "nte-ems");

  for (auto& r : roadms_) roadm_ems_->manage_roadm(r.get());
  for (auto& f : fxcs_) fxc_ems_->manage_fxc(f.get());
  if (otn_) otn_ems_->manage_otn(otn_.get());

  // Default equipment pools ("currently at 10 Gbps, with plans to go to
  // 40 Gbps" — 40G pools are opt-in via config).
  for (const auto& node : graph_.nodes()) {
    for (std::size_t i = 0; i < config_.ots_per_node; ++i)
      add_transponder(node.id, rates::k10G);
    for (std::size_t i = 0; i < config_.ots_40g_per_node; ++i)
      add_transponder(node.id, rates::k40G);
    for (std::size_t i = 0; i < config_.regens_per_node; ++i)
      add_regen(node.id, rates::k10G);
    for (std::size_t i = 0; i < config_.regens_40g_per_node; ++i)
      add_regen(node.id, rates::k40G);
  }
}

dwdm::Roadm& NetworkModel::roadm_at(NodeId node) {
  if (node.value() >= roadms_.size())
    throw std::out_of_range("NetworkModel::roadm_at");
  return *roadms_[node.value()];
}

const dwdm::Roadm& NetworkModel::roadm_at(NodeId node) const {
  if (node.value() >= roadms_.size())
    throw std::out_of_range("NetworkModel::roadm_at");
  return *roadms_[node.value()];
}

fxc::Fxc& NetworkModel::fxc_at(NodeId node) {
  if (node.value() >= fxcs_.size())
    throw std::out_of_range("NetworkModel::fxc_at");
  return *fxcs_[node.value()];
}

dwdm::Transponder& NetworkModel::ot(TransponderId id) {
  if (id.value() >= ots_.size())
    throw std::out_of_range("NetworkModel::ot");
  return *ots_[id.value()];
}

const dwdm::Transponder& NetworkModel::ot(TransponderId id) const {
  if (id.value() >= ots_.size())
    throw std::out_of_range("NetworkModel::ot");
  return *ots_[id.value()];
}

dwdm::Regenerator& NetworkModel::regen(RegenId id) {
  if (id.value() >= regens_.size())
    throw std::out_of_range("NetworkModel::regen");
  return *regens_[id.value()];
}

PortId NetworkModel::roadm_port_of_ot(TransponderId id) const {
  if (id.value() >= ot_roadm_ports_.size())
    throw std::out_of_range("NetworkModel: OT has no ROADM port");
  return ot_roadm_ports_[id.value()];
}

std::pair<PortId, PortId> NetworkModel::roadm_ports_of_regen(
    RegenId id) const {
  if (id.value() >= regen_roadm_ports_.size())
    throw std::out_of_range("NetworkModel: regen has no ROADM ports");
  return regen_roadm_ports_[id.value()];
}

dwdm::Muxponder& NetworkModel::nte(MuxponderId id) {
  if (id.value() >= ntes_.size())
    throw std::out_of_range("NetworkModel::nte");
  return *ntes_[id.value()];
}

const CustomerSite* NetworkModel::site_by_nte(MuxponderId nte) const {
  for (const auto& s : sites_)
    if (s.nte == nte) return &s;
  return nullptr;
}

TransponderId NetworkModel::add_transponder(NodeId node, DataRate line_rate) {
  const TransponderId id = ot_ids_.next();
  ots_.push_back(std::make_unique<dwdm::Transponder>(id, node, line_rate));
  ots_.back()->bind_version_counter(&device_version_);
  dwdm::Transponder* dev = ots_.back().get();
  dev->set_change_listener([this, dev] {
    if (ot_observer_) ot_observer_(*dev);
  });
  roadm_ems_->manage_ot(ots_.back().get());
  // Static cabling: OT line side to a dedicated colorless ROADM port, OT
  // client side into the site FXC.
  const PortId roadm_port = roadm_at(node).add_ports(1).front();
  ot_roadm_ports_.push_back(roadm_port);
  fxc::Fxc& f = fxc_at(node);
  for (std::size_t p = 0; p < f.port_count(); ++p) {
    if (f.wiring(PortId{p}).kind == fxc::Wiring::Kind::kUnwired) {
      f.wire(PortId{p}, fxc::Wiring{fxc::Wiring::Kind::kTransponderClient,
                                    id.value(), 0});
      return id;
    }
  }
  throw std::runtime_error("NetworkModel: FXC out of ports for OT");
}

RegenId NetworkModel::add_regen(NodeId node, DataRate line_rate) {
  const RegenId id = regen_ids_.next();
  regens_.push_back(std::make_unique<dwdm::Regenerator>(id, node, line_rate));
  regens_.back()->bind_version_counter(&device_version_);
  dwdm::Regenerator* dev = regens_.back().get();
  dev->set_change_listener([this, dev] {
    if (regen_observer_) regen_observer_(*dev);
  });
  roadm_ems_->manage_regen(regens_.back().get());
  auto ports = roadm_at(node).add_ports(2);
  regen_roadm_ports_.emplace_back(ports[0], ports[1]);
  return id;
}

CustomerSite& NetworkModel::add_customer_site(CustomerId customer,
                                              std::string name,
                                              NodeId core_pop) {
  const MuxponderId id = nte_ids_.next();
  ntes_.push_back(std::make_unique<dwdm::Muxponder>(id, customer, core_pop));
  nte_ems_->manage_nte(ntes_.back().get());
  // The NTE's four 10G client channels surface on the core-PoP FXC (the
  // "fat pipe" lands on the COT there).
  fxc::Fxc& f = fxc_at(core_pop);
  for (std::size_t ch = 0; ch < dwdm::Muxponder::kClientPorts; ++ch) {
    bool wired = false;
    for (std::size_t p = 0; p < f.port_count(); ++p) {
      if (f.wiring(PortId{p}).kind == fxc::Wiring::Kind::kUnwired) {
        f.wire(PortId{p}, fxc::Wiring{fxc::Wiring::Kind::kCustomerAccess,
                                      id.value(), ch});
        wired = true;
        break;
      }
    }
    if (!wired)
      throw std::runtime_error("NetworkModel: FXC out of ports for access");
  }
  sites_.push_back(CustomerSite{customer, std::move(name), core_pop, id});
  return sites_.back();
}

Result<CarrierId> NetworkModel::add_otn_carrier(
    NodeId a, NodeId b, DataRate line_rate, const std::vector<LinkId>& route) {
  if (!otn_)
    return Error{ErrorCode::kNotFound, "NetworkModel: OTN layer disabled"};
  // OTN line cards plug straight into dedicated ROADM ports; the wavelength
  // they ride is provisioned by the controller before this call. Wire the
  // OTN switch client ports into the FXC lazily on first carrier.
  auto ensure_otn_fxc_wiring = [&](NodeId node) {
    const otn::OtnSwitch* sw = otn_->switch_at(node);
    fxc::Fxc& f = fxc_at(node);
    for (std::size_t cp = 0; cp < sw->client_port_count(); ++cp) {
      if (f.port_for(fxc::Wiring::Kind::kOtnClientPort, sw->id().value(), cp))
        continue;
      for (std::size_t p = 0; p < f.port_count(); ++p) {
        if (f.wiring(PortId{p}).kind == fxc::Wiring::Kind::kUnwired) {
          f.wire(PortId{p}, fxc::Wiring{fxc::Wiring::Kind::kOtnClientPort,
                                        sw->id().value(), cp});
          break;
        }
      }
    }
  };
  ensure_otn_fxc_wiring(a);
  ensure_otn_fxc_wiring(b);
  return otn_->add_carrier(a, b, line_rate, route);
}

std::vector<ems::EmsServer*> NetworkModel::ems_servers() noexcept {
  return {roadm_ems_.get(), fxc_ems_.get(), otn_ems_.get(), nte_ems_.get()};
}

std::vector<proto::ControlChannel*> NetworkModel::control_channels() noexcept {
  return {roadm_chan_.get(), fxc_chan_.get(), otn_chan_.get(),
          nte_chan_.get()};
}

void NetworkModel::attach_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  roadm_ems_->set_telemetry(telemetry);
  fxc_ems_->set_telemetry(telemetry);
  otn_ems_->set_telemetry(telemetry);
  nte_ems_->set_telemetry(telemetry);
  if (restorer_) restorer_->set_telemetry(telemetry);
}

void NetworkModel::fail_link(LinkId link) {
  if (link.value() >= link_failed_.size())
    throw std::out_of_range("NetworkModel::fail_link");
  if (link_failed_[link.value()]) return;
  link_failed_[link.value()] = true;
  ++topology_version_;
  link_changed(link);
  if (telemetry_ != nullptr) {
    fiber_cuts_.in(telemetry_->metrics()).inc();
    telemetry_->note_link_failed(link.value());
    telemetry_->event(telemetry::Severity::kWarn, "plant", "plant",
                      "fiber cut on " + graph_.link(link).name);
  }
  const auto& l = graph_.link(link);
  roadm_at(l.a).on_link_failed(link, engine_->now());
  roadm_at(l.b).on_link_failed(link, engine_->now());
  if (restorer_) restorer_->link_failed(link);
}

void NetworkModel::repair_link(LinkId link) {
  if (link.value() >= link_failed_.size())
    throw std::out_of_range("NetworkModel::repair_link");
  if (!link_failed_[link.value()]) return;
  link_failed_[link.value()] = false;
  ++topology_version_;
  link_changed(link);
  if (telemetry_ != nullptr) {
    fiber_repairs_.in(telemetry_->metrics()).inc();
    telemetry_->event(telemetry::Severity::kInfo, "plant", "plant",
                      "fiber repaired on " + graph_.link(link).name);
  }
  const auto& l = graph_.link(link);
  roadm_at(l.a).on_link_restored(link, engine_->now());
  roadm_at(l.b).on_link_restored(link, engine_->now());
  if (restorer_) restorer_->link_repaired(link);
}

bool NetworkModel::link_failed(LinkId link) const {
  return link.value() < link_failed_.size() && link_failed_[link.value()];
}

std::vector<LinkId> NetworkModel::failed_links() const {
  std::vector<LinkId> out;
  for (std::size_t i = 0; i < link_failed_.size(); ++i)
    if (link_failed_[i]) out.push_back(LinkId{i});
  return out;
}

}  // namespace griphon::core
