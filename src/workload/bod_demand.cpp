#include "workload/bod_demand.hpp"

#include <cmath>

namespace griphon::workload {

void BulkDemandGenerator::run_until(SimTime until) {
  schedule_next(until);
}

void BulkDemandGenerator::schedule_next(SimTime until) {
  const double mean_gap_hours = 1.0 / params_.arrivals_per_hour;
  const SimTime gap =
      from_seconds(engine_->rng().exponential(mean_gap_hours * 3600.0));
  if (engine_->now() + gap > until) return;
  engine_->schedule(gap, [this, until] {
    ++stats_.offered;
    Rng& rng = engine_->rng();
    const auto& ep = params_.endpoints[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(params_.endpoints.size()) - 1))];
    // Volumes span orders of magnitude ("terabytes to petabytes"); a
    // log-uniform draw keeps both ends of the range represented.
    const double log_bytes =
        rng.uniform(std::log(static_cast<double>(params_.min_bytes)),
                    std::log(static_cast<double>(params_.max_bytes)));
    const auto bytes = static_cast<std::int64_t>(std::exp(log_bytes));
    // Deadline = now + slack x ideal duration at the reference rate.
    constexpr DataRate kReferenceRate = rates::k10G;
    constexpr double kMinSlack = 1.5;
    constexpr double kMaxSlack = 6.0;
    const SimTime ideal = transfer_time(bytes, kReferenceRate);
    const double slack = rng.uniform(kMinSlack, kMaxSlack);
    bod::TransferScheduler::TransferRequest req;
    req.customer = ep.customer;
    req.src_site = ep.src;
    req.dst_site = ep.dst;
    req.bytes = bytes;
    req.deadline = engine_->now() + from_seconds(to_seconds(ideal) * slack);
    req.priority = params_.priority;
    if (auto r = scheduler_->submit(req); r.ok()) {
      ++stats_.accepted;
      accepted_.push_back(r.value());
    } else {
      ++stats_.rejected;
    }
    schedule_next(until);
  });
}

}  // namespace griphon::workload
