// Legacy circuit BoD at the SONET layer.
//
// What carriers already offered in 2011 (paper §1: BoD private-line
// services "in limited architectures and usually at rates <= 622 Mbps"):
// virtually concatenated STS-1s on a ring, provisioned in minutes by
// reconfiguring electronic circuit switches. Fast, but capped far below
// wavelength rates — the gap GRIPhoN fills.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "sonet/ring.hpp"
#include "sonet/sts.hpp"

namespace griphon::baseline {

class SonetBodService {
 public:
  explicit SonetBodService(sonet::SonetRing* ring) : ring_(ring) {}

  struct Provisioned {
    StsCircuitId circuit;
    SimTime provisioning_time{};
    DataRate granted;
  };

  /// Request `rate` between two ring nodes. Rates above the 622 Mbps
  /// service ceiling are rejected — that is the point of the comparison.
  [[nodiscard]] Result<Provisioned> request(NodeId src, NodeId dst,
                                            DataRate rate, Rng& rng);
  [[nodiscard]] Status release(StsCircuitId id) { return ring_->release(id); }

  [[nodiscard]] const sonet::SonetRing& ring() const noexcept {
    return *ring_;
  }

 private:
  sonet::SonetRing* ring_;
};

}  // namespace griphon::baseline
