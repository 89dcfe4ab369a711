// "Today's reality" baseline: statically provisioned private lines.
//
// A carrier provisions a dedicated inter-DC circuit in weeks (paper §1:
// "Today's backbone optical networks can take several weeks to provision a
// customer's private line connection") and the customer then holds it
// 24/7 whether or not bulk transfers are running. This model quantifies
// both sides: time-to-bandwidth and circuit-hours paid.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace griphon::baseline {

class StaticProvisioningModel {
 public:
  /// Sampled provisioning time for one new circuit.
  [[nodiscard]] static SimTime provisioning_time(Rng& rng) {
    // Order-to-turn-up interval for a new wavelength private line.
    constexpr SimTime kLeadTimeMin = hours(24 * 14);  // 2 weeks
    constexpr SimTime kLeadTimeMax = hours(24 * 56);  // 8 weeks
    return from_seconds(
        rng.uniform(to_seconds(kLeadTimeMin), to_seconds(kLeadTimeMax)));
  }

  /// Completion of a transfer of `bytes` when the circuit must first be
  /// provisioned (the "new route" worst case).
  [[nodiscard]] static SimTime transfer_cold(std::int64_t bytes,
                                             DataRate rate, Rng& rng) {
    return provisioning_time(rng) + transfer_time(bytes, rate);
  }

  /// Circuit-hours consumed over an interval when the line is dedicated:
  /// the full interval, independent of utilization — the waste BoD removes.
  [[nodiscard]] static double circuit_hours(SimTime held, int circuits = 1) {
    return to_seconds(held) / 3600.0 * circuits;
  }
};

/// Manual repair of an unprotected wavelength service: "wait for the
/// carrier to manually restore connections which means long outage times
/// (4 to 12 hours typically)" (paper §1).
class ManualRepairModel {
 public:
  [[nodiscard]] static SimTime repair_time(Rng& rng) {
    return from_seconds(rng.uniform(to_seconds(hours(4)),
                                    to_seconds(hours(12))));
  }
};

}  // namespace griphon::baseline
