#include "baseline/sonet_bod.hpp"

namespace griphon::baseline {

Result<SonetBodService::Provisioned> SonetBodService::request(NodeId src,
                                                              NodeId dst,
                                                              DataRate rate,
                                                              Rng& rng) {
  if (rate > sonet::kLegacyBodCeiling)
    return Error{ErrorCode::kInvalidArgument,
                 "sonet-bod: rate above the 622 Mbps service ceiling"};
  const int sts1 = sonet::sts1_count_for(rate);
  auto circuit = ring_->provision(src, dst, sts1);
  if (!circuit.ok()) return circuit.error();
  Provisioned p;
  p.circuit = circuit.value();
  // Electronic cross-connect reconfiguration: minutes, not weeks.
  constexpr SimTime kProvisioningMin = seconds(60);
  constexpr SimTime kProvisioningMax = seconds(180);
  p.provisioning_time = from_seconds(rng.uniform(
      to_seconds(kProvisioningMin), to_seconds(kProvisioningMax)));
  p.granted = sonet::vcat_rate(sts1);
  return p;
}

}  // namespace griphon::baseline
