// Deadline-driven bulk-transfer demand for the BoD service layer.
//
// Generates the paper's §1 workload — "background, non-interactive, bulk
// data transfers" of terabytes with business deadlines — as a Poisson
// arrival stream of TransferScheduler requests: random site pair, a volume
// drawn log-uniformly between configured bounds, and a deadline set to a
// multiple of the transfer's ideal duration at 10G (the slack factor
// controls how tight the deadlines are, i.e. how contended the calendar
// gets).
#pragma once

#include <utility>
#include <vector>

#include "bod/transfer_scheduler.hpp"

namespace griphon::workload {

class BulkDemandGenerator {
 public:
  struct Params {
    double arrivals_per_hour = 6.0;
    std::int64_t min_bytes = 500LL * 1'000'000'000;    ///< 0.5 TB
    std::int64_t max_bytes = 20'000LL * 1'000'000'000;  ///< 20 TB
    bod::Priority priority = bod::Priority::kBestEffortBulk;
    /// (customer, src, dst) triples demand is drawn from uniformly; the
    /// customer must have a portal registered with the scheduler.
    struct Endpoint {
      CustomerId customer;
      MuxponderId src;
      MuxponderId dst;
    };
    std::vector<Endpoint> endpoints;
  };

  struct Stats {
    std::size_t offered = 0;
    std::size_t accepted = 0;
    std::size_t rejected = 0;
  };

  BulkDemandGenerator(sim::Engine* engine, bod::TransferScheduler* scheduler,
                      Params params)
      : engine_(engine), scheduler_(scheduler), params_(std::move(params)) {}

  /// Start generating arrivals until `until` (simulated time).
  void run_until(SimTime until);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<TransferId>& accepted_transfers()
      const noexcept {
    return accepted_;
  }

 private:
  void schedule_next(SimTime until);

  sim::Engine* engine_;
  bod::TransferScheduler* scheduler_;
  Params params_;
  Stats stats_;
  std::vector<TransferId> accepted_;
};

}  // namespace griphon::workload
