// Assembled GRIPhoN plant.
//
// Owns every physical element of one GRIPhoN deployment: the fiber graph,
// one ROADM per node, pools of tunable OTs and REGENs, a client-side FXC
// per site, the OTN layer, customer muxponders (NTEs), the vendor EMSs and
// the control channels between the controller and each EMS. Also provides
// fiber failure injection, which drives alarms through the device models.
//
// The model is deliberately dumb: all intelligence lives in the
// GriphonController. Tests build small models directly; examples and
// benches use the builders.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dwdm/muxponder.hpp"
#include "dwdm/reach.hpp"
#include "dwdm/roadm.hpp"
#include "dwdm/transponder.hpp"
#include "ems/ems_server.hpp"
#include "fxc/fxc.hpp"
#include "otn/layer.hpp"
#include "otn/restorer.hpp"
#include "proto/channel.hpp"
#include "proto/client.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "topology/graph.hpp"

namespace griphon::telemetry {
class Telemetry;
}  // namespace griphon::telemetry

namespace griphon::core {

/// Per-customer premises equipment and its access pipe into a core PoP.
/// The premises itself is off the core graph; the NTE id doubles as the
/// site handle in the service API.
struct CustomerSite {
  CustomerId customer;
  std::string name;     ///< e.g. "DC-Ashburn"
  NodeId core_pop;      ///< ROADM node the access pipe lands on
  MuxponderId nte;      ///< 4x10G->40G muxponder at the premises
};

class NetworkModel {
 public:
  struct Config {
    std::size_t channels = 80;            ///< DWDM grid size
    std::size_t ots_per_node = 8;         ///< 10G tunable OT pool per site
    std::size_t ots_40g_per_node = 0;     ///< 40G OT pool per site
    std::size_t regens_per_node = 2;      ///< 10G regen pool per site
    std::size_t regens_40g_per_node = 0;  ///< 40G regen pool per site
    std::size_t fxc_ports_per_node = 64;
    std::size_t otn_client_ports = 16;    ///< per OTN switch
    bool with_otn = true;
    ems::EmsLatencyProfile ems_profile = ems::EmsLatencyProfile::testbed_2011();
  };

  NetworkModel(sim::Engine* engine, topology::Graph graph, Config config);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  // --- plant accessors ---------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const topology::Graph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Attach a telemetry sink to the whole deployment: the plant itself,
  /// the four EMS servers and the OTN mesh restorer start recording;
  /// controller-side components pick the sink up through telemetry().
  /// Pass nullptr to detach. Null by default — the no-sink fast path.
  void attach_telemetry(telemetry::Telemetry* telemetry);
  [[nodiscard]] telemetry::Telemetry* telemetry() const noexcept {
    return telemetry_;
  }
  [[nodiscard]] const dwdm::ReachModel& reach() const noexcept {
    return reach_;
  }
  [[nodiscard]] const dwdm::WavelengthGrid& grid() const noexcept {
    return grid_;
  }

  /// Monotonic counter bumped once per ROADM degree a configuration change
  /// touches (twice for an express cross-connect), just before the link
  /// observer hears of that degree's link. Caches derived from plant state
  /// (the Inventory's link availability and usage table) compare against
  /// it to detect a change they did not observe.
  [[nodiscard]] std::uint64_t plant_version() const noexcept {
    return plant_version_;
  }

  /// Monotonic counter bumped on every fiber cut/repair. Caches derived
  /// from the *routable* topology compare against it: the Inventory to
  /// detect a cut or repair it did not observe, the RwaEngine's route
  /// cache to know when to re-read failed_links().
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return topology_version_;
  }

  /// Monotonic counter bumped on every OT/regen lifecycle transition
  /// (tune/activate/deactivate/reset/fail/repair, engage/release).
  /// Caches derived from device state (the Inventory snapshot's free-OT
  /// and free-regen bitmaps) compare against it to know when to rebuild.
  [[nodiscard]] std::uint64_t device_version() const noexcept {
    return device_version_;
  }

  /// Change observers. The OT/regen observers get the transitioned device
  /// after device_version() has bumped. The link observer gets the link of
  /// every ROADM degree a configuration change touched (after
  /// plant_version() has bumped) and of every fiber cut or repair (after
  /// topology_version() has bumped, before any alarm is raised). The
  /// controller's Inventory registers here to keep its free-OT/free-regen
  /// bitmaps and its per-link availability and usage current in O(1) or
  /// O(channels/64) per change instead of re-scanning the plant. One
  /// observer each (last registration wins); set empty to detach.
  using OtObserver = std::function<void(const dwdm::Transponder&)>;
  using RegenObserver = std::function<void(const dwdm::Regenerator&)>;
  using LinkObserver = std::function<void(LinkId)>;
  void set_device_observers(OtObserver on_ot, RegenObserver on_regen,
                            LinkObserver on_link) {
    ot_observer_ = std::move(on_ot);
    regen_observer_ = std::move(on_regen);
    link_observer_ = std::move(on_link);
  }

  [[nodiscard]] dwdm::Roadm& roadm_at(NodeId node);
  [[nodiscard]] const dwdm::Roadm& roadm_at(NodeId node) const;
  [[nodiscard]] fxc::Fxc& fxc_at(NodeId node);
  [[nodiscard]] otn::OtnLayer& otn() noexcept { return *otn_; }
  [[nodiscard]] const otn::OtnLayer& otn() const noexcept { return *otn_; }
  [[nodiscard]] otn::MeshRestorer& mesh_restorer() noexcept {
    return *restorer_;
  }

  [[nodiscard]] dwdm::Transponder& ot(TransponderId id);
  [[nodiscard]] const dwdm::Transponder& ot(TransponderId id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<dwdm::Transponder>>& ots()
      const noexcept {
    return ots_;
  }
  [[nodiscard]] dwdm::Regenerator& regen(RegenId id);
  [[nodiscard]] const std::vector<std::unique_ptr<dwdm::Regenerator>>&
  regens() const noexcept {
    return regens_;
  }
  /// ROADM add/drop port statically cabled to this OT's line side.
  [[nodiscard]] PortId roadm_port_of_ot(TransponderId id) const;
  /// ROADM ports cabled to a regen's two line sides (upstream, downstream).
  [[nodiscard]] std::pair<PortId, PortId> roadm_ports_of_regen(
      RegenId id) const;

  [[nodiscard]] dwdm::Muxponder& nte(MuxponderId id);
  [[nodiscard]] const std::vector<CustomerSite>& customer_sites()
      const noexcept {
    return sites_;
  }
  [[nodiscard]] const CustomerSite* site_by_nte(MuxponderId nte) const;

  // --- construction helpers ---------------------------------------------
  /// Add an OT to `node`'s shared pool (wired to ROADM + FXC).
  TransponderId add_transponder(NodeId node, DataRate line_rate);
  /// Add a regenerator to `node`'s pool.
  RegenId add_regen(NodeId node, DataRate line_rate);
  /// Connect a customer premises to a core PoP with an NTE + access pipe.
  CustomerSite& add_customer_site(CustomerId customer, std::string name,
                                  NodeId core_pop);
  /// Provision an OTU carrier for the OTN layer over a wavelength route
  /// (consumes one DWDM channel on each route link, outside the OT pools).
  [[nodiscard]] Result<CarrierId> add_otn_carrier(NodeId a, NodeId b, DataRate line_rate,
                                    const std::vector<LinkId>& route);

  // --- EMS access (controller side) ---------------------------------------
  [[nodiscard]] proto::RequestClient& roadm_ems_client() noexcept {
    return *roadm_client_;
  }
  [[nodiscard]] proto::RequestClient& fxc_ems_client() noexcept {
    return *fxc_client_;
  }
  [[nodiscard]] proto::RequestClient& otn_ems_client() noexcept {
    return *otn_client_;
  }
  [[nodiscard]] proto::RequestClient& nte_ems_client() noexcept {
    return *nte_client_;
  }
  [[nodiscard]] ems::EmsServer& roadm_ems() noexcept { return *roadm_ems_; }
  [[nodiscard]] ems::EmsServer& fxc_ems() noexcept { return *fxc_ems_; }
  [[nodiscard]] ems::EmsServer& otn_ems() noexcept { return *otn_ems_; }
  [[nodiscard]] ems::EmsServer& nte_ems() noexcept { return *nte_ems_; }

  /// All vendor EMS servers / DCN control channels, for fleet-wide
  /// operations (chaos injection, resync audits). Stable order: roadm,
  /// fxc, otn, nte.
  [[nodiscard]] std::vector<ems::EmsServer*> ems_servers() noexcept;
  [[nodiscard]] std::vector<proto::ControlChannel*>
  control_channels() noexcept;

  // --- failure injection ---------------------------------------------------
  /// Cut the fiber: ROADMs raise LOS alarms, OTN carriers riding it fail.
  void fail_link(LinkId link);
  void repair_link(LinkId link);
  [[nodiscard]] bool link_failed(LinkId link) const;
  [[nodiscard]] std::vector<LinkId> failed_links() const;

 private:
  void link_changed(LinkId link) {
    if (link_observer_) link_observer_(link);
  }

  sim::Engine* engine_;
  topology::Graph graph_;
  Config config_;
  dwdm::WavelengthGrid grid_;
  dwdm::ReachModel reach_;

  std::vector<std::unique_ptr<dwdm::Roadm>> roadms_;  // by node index
  std::vector<std::unique_ptr<fxc::Fxc>> fxcs_;       // by node index
  std::vector<std::unique_ptr<dwdm::Transponder>> ots_;
  std::vector<std::unique_ptr<dwdm::Regenerator>> regens_;
  std::vector<std::unique_ptr<dwdm::Muxponder>> ntes_;
  /// Static ROADM cabling, indexed by the dense OT / regen id.
  std::vector<PortId> ot_roadm_ports_;
  std::vector<std::pair<PortId, PortId>> regen_roadm_ports_;
  std::unique_ptr<otn::OtnLayer> otn_;
  std::unique_ptr<otn::MeshRestorer> restorer_;
  std::vector<CustomerSite> sites_;

  // EMS plumbing: channel + server per vendor domain.
  std::unique_ptr<proto::ControlChannel> roadm_chan_, fxc_chan_, otn_chan_,
      nte_chan_;
  std::unique_ptr<ems::EmsServer> roadm_ems_, fxc_ems_, otn_ems_, nte_ems_;
  std::unique_ptr<proto::RequestClient> roadm_client_, fxc_client_,
      otn_client_, nte_client_;

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::CachedCounter fiber_cuts_{"griphon_plant_fiber_cuts_total",
                                       "Fiber cuts injected"};
  telemetry::CachedCounter fiber_repairs_{"griphon_plant_fiber_repairs_total",
                                          "Fiber repairs"};
  std::vector<bool> link_failed_;  // by link index
  std::uint64_t plant_version_ = 0;
  std::uint64_t topology_version_ = 0;
  std::uint64_t device_version_ = 0;
  OtObserver ot_observer_;
  RegenObserver regen_observer_;
  LinkObserver link_observer_;
  IdAllocator<MuxponderId> nte_ids_;
  IdAllocator<TransponderId> ot_ids_;
  IdAllocator<RegenId> regen_ids_;
};

}  // namespace griphon::core
