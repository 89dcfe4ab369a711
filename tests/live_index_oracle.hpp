// Brute-force oracle for the controller's live-connection index.
//
// GriphonController answers connections_of(), active_connections(),
// live_wavelength_connections() and quiescent() from an index that
// set_state() maintains. The oracle ignores the index: it walks the whole
// connection history by id through find_connection() and recomputes every
// answer from the records' states.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/controller.hpp"

namespace griphon::core {

inline void expect_live_index_consistent(
    const GriphonController& controller) {
  const auto& st = controller.stats();
  // Requests refused before a record was made (no free NTE port) consume
  // an id without leaving a record; the bound only keeps the scan finite.
  const std::uint64_t limit = 4 * (st.setups_ok + st.setups_failed) + 4096;
  std::map<CustomerId, std::vector<ConnectionId>> live_of;
  std::vector<ConnectionId> live_waves;
  std::size_t up = 0;
  bool transitional = false;
  for (std::uint64_t i = 0; i < limit; ++i) {
    const ConnectionId id{i};
    const Connection* c = controller.find_connection(id);
    if (c == nullptr) continue;
    // Customers whose records are all terminal must read back empty.
    std::vector<ConnectionId>& mine = live_of[c->customer];
    switch (c->state) {
      case ConnectionState::kReleased:
      case ConnectionState::kSetupFailed:
        continue;
      case ConnectionState::kPending:
      case ConnectionState::kSettingUp:
      case ConnectionState::kRestoring:
      case ConnectionState::kRolling:
      case ConnectionState::kTearingDown:
        transitional = true;
        break;
      case ConnectionState::kActive:
      case ConnectionState::kFailed:
        break;
    }
    mine.push_back(id);
    if (c->is_up()) {
      ++up;
      if (c->kind == ConnectionKind::kWavelength) live_waves.push_back(id);
    }
  }
  for (const auto& [customer, ids] : live_of)
    EXPECT_EQ(controller.connections_of(customer), ids)
        << "connections_of(customer " << customer.value() << ")";
  EXPECT_EQ(controller.active_connections(), up);
  EXPECT_EQ(controller.live_wavelength_connections(), live_waves);
  if (transitional) {
    EXPECT_FALSE(controller.quiescent())
        << "quiescent while a connection state machine is running";
  }
}

}  // namespace griphon::core
