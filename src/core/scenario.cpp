#include "core/scenario.hpp"

#include <stdexcept>

namespace griphon::core {

namespace {

/// Provision one OTU carrier per physical link (the OTN layer's "ride" on
/// the DWDM layer), so sub-wavelength circuits can groom everywhere and
/// protected circuits can find disjoint backup routes.
void provision_carriers_everywhere(NetworkModel& model, DataRate line_rate) {
  for (const auto& link : model.graph().links()) {
    auto got = model.add_otn_carrier(link.a, link.b, line_rate, {link.id});
    if (!got.ok())
      throw std::runtime_error("scenario: carrier provisioning failed: " +
                               got.error().message());
  }
}

}  // namespace

TestbedScenario::TestbedScenario(std::uint64_t seed,
                                 NetworkModel::Config config,
                                 GriphonController::Params params)
    : engine(seed), topo(topology::paper_testbed()) {
  model = std::make_unique<NetworkModel>(&engine, topo.graph, config);
  if (config.with_otn)
    provision_carriers_everywhere(*model, rates::k10G);
  site_i = model->add_customer_site(csp, "DC-I", topo.i).nte;
  site_iii = model->add_customer_site(csp, "DC-III", topo.iii).nte;
  site_iv = model->add_customer_site(csp, "DC-IV", topo.iv).nte;
  controller = std::make_unique<GriphonController>(model.get(), params);
  portal = std::make_unique<CustomerPortal>(controller.get(), csp,
                                            DataRate::gbps(160));
}

BackboneScenario::BackboneScenario(std::uint64_t seed, Options options)
    : engine(seed) {
  model = std::make_unique<NetworkModel>(&engine, topology::us_backbone(),
                                         options.config);
  if (options.config.with_otn)
    provision_carriers_everywhere(*model, rates::k10G);
  controller = std::make_unique<GriphonController>(model.get(),
                                                   options.params);

  const auto& nodes = model->graph().nodes();
  std::size_t next_pop = 0;
  for (std::size_t c = 0; c < options.customers; ++c) {
    const CustomerId customer{c + 1};
    portals.push_back(std::make_unique<CustomerPortal>(
        controller.get(), customer, options.quota));
    for (std::size_t s = 0; s < options.sites_per_customer; ++s) {
      // Spread sites across the continent, round-robin with a stride that
      // keeps one customer's sites far apart.
      const NodeId pop = nodes[(next_pop * 5 + 2) % nodes.size()].id;
      ++next_pop;
      sites.push_back(model
                          ->add_customer_site(
                              customer,
                              "DC-" + std::to_string(c) + "-" +
                                  std::to_string(s) + "@" +
                                  model->graph().node(pop).name,
                              pop)
                          .nte);
    }
  }
}

MuxponderId BackboneScenario::site(std::size_t customer,
                                   std::size_t index) const {
  const std::size_t per =
      sites.size() / (portals.empty() ? 1 : portals.size());
  const std::size_t i = customer * per + index;
  if (i >= sites.size())
    throw std::out_of_range("BackboneScenario::site");
  return sites[i];
}

}  // namespace griphon::core
