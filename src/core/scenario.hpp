// Canned deployment scenarios shared by examples, tests and benches.
//
//  * TestbedScenario — the paper's Fig. 4 laboratory prototype: four
//    ROADMs (I..IV), three customer premises, OT pools behind client-side
//    FXCs, OTN layer with carriers over every span plus protection routes.
//  * BackboneScenario — a 14-node continental backbone with several cloud
//    customers, for restoration / blocking / grooming studies.
#pragma once

#include <memory>

#include "core/controller.hpp"
#include "core/network_model.hpp"
#include "core/portal.hpp"
#include "topology/builders.hpp"

namespace griphon::core {

struct TestbedScenario {
  sim::Engine engine;
  topology::Testbed topo;
  std::unique_ptr<NetworkModel> model;
  std::unique_ptr<GriphonController> controller;
  std::unique_ptr<CustomerPortal> portal;
  CustomerId csp{1};
  MuxponderId site_i;    ///< premises homed on ROADM I
  MuxponderId site_iii;  ///< premises homed on ROADM III
  MuxponderId site_iv;   ///< premises homed on ROADM IV

  explicit TestbedScenario(std::uint64_t seed,
                           NetworkModel::Config config = {},
                           GriphonController::Params params = {});
};

struct BackboneScenario {
  sim::Engine engine;
  std::unique_ptr<NetworkModel> model;
  std::unique_ptr<GriphonController> controller;
  /// One portal per cloud customer; sites spread over the continent.
  std::vector<std::unique_ptr<CustomerPortal>> portals;
  std::vector<MuxponderId> sites;  ///< all sites, grouped by customer

  struct Options {
    std::size_t customers = 2;
    std::size_t sites_per_customer = 3;
    DataRate quota = DataRate::gbps(200);
    NetworkModel::Config config{};
    GriphonController::Params params{};
  };
  BackboneScenario(std::uint64_t seed, Options options);

  [[nodiscard]] MuxponderId site(std::size_t customer,
                                 std::size_t index) const;
};

}  // namespace griphon::core
