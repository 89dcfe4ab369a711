// Deadline-driven bulk-transfer scheduling — the BoD service layer's
// "move N terabytes from A to B before Friday" front door.
//
// The scheduler turns a volume + deadline into concrete network actions:
// it picks a route from the RWA engine's candidate set, a composable
// service rate (10G waves + n x 1G ODUs via the portal's bundle
// decomposition), and the earliest calendar window that fits — then
// compiles the choice into timed setup/release events on the sim clock.
// When one window cannot meet the deadline it splits the transfer into
// pieces scheduled over separate windows/routes; when setup fails it
// retries with backoff; when a fiber cut shrinks future capacity it
// re-plans every scheduled piece whose route died.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bod/admission.hpp"
#include "bod/reservation_calendar.hpp"
#include "core/portal.hpp"
#include "telemetry/metrics.hpp"

namespace griphon::bod {

class TransferScheduler {
 public:
  struct Params {
    /// Service rates offered to a transfer, tried highest first. Each must
    /// decompose cleanly through CustomerPortal::decompose.
    std::vector<DataRate> rate_ladder{
        rates::k40G,          DataRate::gbps(20), DataRate::gbps(12),
        rates::k10G,          DataRate::gbps(5),  DataRate::gbps(2),
        rates::k1G};
    /// Extra window time reserved in front of the data to absorb bundle
    /// setup (the paper's 60-70 s per wavelength, x4 for a 40G composite).
    SimTime setup_pad = minutes(8);
    /// A setup refused with kUnavailable (an EMS circuit breaker is open)
    /// is *deferred* — parked for this long without consuming a retry,
    /// since hammering a dead EMS cannot succeed. Bounded per piece.
    SimTime unavailable_defer = seconds(60);
    /// Split a transfer into at most this many pieces when a single window
    /// cannot meet the deadline.
    int max_pieces = 2;
  };

  /// The scheduler claims the controller's topology-observer slot to learn
  /// about fiber cuts/repairs (re-scheduling hook) and its preemption-hook
  /// slot so gold restorations out of wavelengths can reclaim best-effort
  /// calendar windows.
  TransferScheduler(core::GriphonController* controller,
                    ReservationCalendar* calendar,
                    AdmissionController* admission, Params params);
  TransferScheduler(core::GriphonController* controller,
                    ReservationCalendar* calendar,
                    AdmissionController* admission)
      : TransferScheduler(controller, calendar, admission, Params{}) {}

  /// Transfers are submitted on behalf of a registered customer portal —
  /// the portal supplies quota enforcement and bundle setup. Unregistered
  /// customers are rejected with kPermissionDenied.
  void register_portal(core::CustomerPortal* portal);

  struct TransferRequest {
    CustomerId customer;
    MuxponderId src_site;
    MuxponderId dst_site;
    std::int64_t bytes = 0;
    SimTime deadline{};  ///< absolute sim time the last byte must land by
    Priority priority = Priority::kBestEffortBulk;
  };

  enum class TransferState {
    kScheduled,  ///< calendar windows reserved, waiting for setup time
    kActive,     ///< at least one piece's bundle is carrying data
    kCompleted,  ///< all bytes delivered
    kFailed,     ///< could not be completed (setup/capacity loss)
    kCancelled,  ///< customer cancelled
  };

  /// Admission + planning + calendar reservation, all up front. On success
  /// the transfer is fully scheduled (every piece has a reserved window
  /// that completes before the deadline). Errors:
  ///  * kPermissionDenied  — customer has no portal / no BoD contract;
  ///  * kBusy              — per-customer request rate limit;
  ///  * kResourceExhausted — quota, or no calendar window meets the
  ///    deadline (the message names the earliest achievable completion);
  ///  * kUnreachable       — no route between the sites.
  [[nodiscard]] Result<TransferId> submit(const TransferRequest& request);

  /// Customer-facing status view. `caller` must own the transfer
  /// (kPermissionDenied otherwise — tenant isolation).
  struct TransferStatus {
    TransferId id;
    TransferState state = TransferState::kScheduled;
    std::int64_t bytes = 0;
    SimTime deadline{};
    /// Scheduled completion (latest piece window end) or actual completion
    /// once done.
    SimTime expected_completion{};
    int pieces = 0;
    int reschedules = 0;
    /// Bundles of the pieces carrying data right now (see the portal).
    std::vector<core::BundleId> live_bundles;
    std::string detail;
  };
  [[nodiscard]] Result<TransferStatus> inspect(CustomerId caller,
                                               TransferId id) const;

  /// Cancel a scheduled/active transfer, releasing its calendar windows
  /// and tearing down any live bundles. Same isolation guard as inspect().
  [[nodiscard]] Status cancel(CustomerId caller, TransferId id);

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadline_met = 0;
    std::uint64_t deadline_missed = 0;
    std::uint64_t failed = 0;
    std::uint64_t splits = 0;       ///< transfers scheduled in >1 piece
    std::uint64_t reschedules = 0;  ///< pieces re-planned after a cut
    std::uint64_t setup_retries = 0;
    std::uint64_t setups_deferred = 0;  ///< parked on an open EMS breaker
    std::uint64_t preempted = 0;  ///< windows torn down for gold restoration
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Text table of all transfers (shell `transfers` command).
  [[nodiscard]] std::string render() const;

  /// Calendar key for a site's access pipe. The NTE muxponder bounds the
  /// site to kClientPorts x 10G of concurrent service, and the calendar is
  /// how the scheduler promises capacity ahead of time — so the access
  /// pipe is entered into the calendar as a pseudo-link, keyed far above
  /// any real LinkId. Each call refreshes the pseudo-link's budget to the
  /// hardware limit minus ports lit by traffic provisioned outside the
  /// calendar (direct portal connections), so plans never promise rates
  /// the NTE cannot deliver. Public so operators can render/inspect
  /// access-pipe occupancy alongside the fibers.
  [[nodiscard]] LinkId access_link(MuxponderId nte);

  /// Free wavelength capacity for a gold restoration between two PoPs
  /// (the controller's PreemptionHook). Walks active best-effort pieces
  /// whose lit connections intersect the restoration's candidate routes
  /// (avoiding `avoid`), tears their bundles down and re-plans each piece
  /// from now — reschedule_piece fails the transfer loudly when the
  /// re-planned window misses its deadline. Stops once the torn-down
  /// rate covers `rate`. Returns the number of windows preempted; the
  /// freed channels land asynchronously as the teardowns complete.
  std::size_t preempt_for_restoration(NodeId src, NodeId dst, DataRate rate,
                                      const std::set<LinkId>& avoid);

  /// Connections currently carrying calendar-committed transfer pieces.
  /// The re-optimization service must not migrate these: their windows
  /// were admitted against specific calendar capacity, and even a hitless
  /// roll risks a mid-window interruption if it aborts. Recomputed per
  /// call — campaign planning queries it once at gather time.
  [[nodiscard]] std::set<ConnectionId> migration_exempt_connections()
      const;

 private:
  /// One scheduled slice of a transfer: a route, a composable rate and a
  /// reserved calendar window big enough for setup + its share of bytes.
  struct Piece {
    ReservationId reservation;
    std::vector<LinkId> route_links;
    DataRate rate;
    Window window;
    std::int64_t bytes = 0;
    core::BundleId bundle;
    bool active = false;
    bool done = false;
    int attempts = 0;
    int defers = 0;  ///< kUnavailable deferrals (EMS breaker open)
    /// Bumped on every reschedule; setup callbacks and retry timers carry
    /// the epoch they were issued under, and results from a superseded
    /// epoch are dropped (their bundle torn down) instead of binding a
    /// stale route to the re-planned piece.
    int setup_epoch = 0;
    sim::EventHandle setup_event;
  };

  struct Transfer {
    TransferId id;
    CustomerId customer;
    MuxponderId src_site;
    MuxponderId dst_site;
    std::int64_t bytes = 0;
    SimTime deadline{};
    Priority priority = Priority::kBestEffortBulk;
    TransferState state = TransferState::kScheduled;
    std::vector<Piece> pieces;
    SimTime completed_at{};
    int reschedules = 0;
  };

  struct PiecePlan {
    std::vector<LinkId> links;
    DataRate rate;
    Window window;
  };

  /// Best (route, rate, window) for `bytes`, preferring the earliest
  /// completion. Searches candidate routes x the rate ladder against the
  /// calendar; `access_links` (the endpoints' access-pipe pseudo-links)
  /// are budgeted alongside every candidate route so concurrent transfers
  /// cannot oversubscribe a site's NTE.
  [[nodiscard]] Result<PiecePlan> plan_piece(
      NodeId src_pop, NodeId dst_pop, std::int64_t bytes, SimTime not_before,
      const std::vector<LinkId>& access_links,
      const core::Exclusions& exclude) const;

  void schedule_setup(TransferId id, std::size_t piece_index);
  void start_setup(TransferId id, std::size_t piece_index);
  void on_setup_result(TransferId id, std::size_t piece_index, int epoch,
                       Result<core::BundleId> result);
  void finish_piece(TransferId id, std::size_t piece_index);
  /// Re-plan a not-yet-active piece around the current failed-link set.
  void reschedule_piece(TransferId id, std::size_t piece_index);
  void fail_transfer(Transfer& t, const std::string& why);
  void release_piece_resources(Transfer& t, Piece& p);
  void on_topology_change(const std::vector<LinkId>& links, bool failed);

  /// Per-customer counter families, registered on first use: with
  /// telemetry armed, a transfer event looks up nothing by name.
  struct Metrics {
    telemetry::KeyedCounters submitted{
        "griphon_bod_transfers_submitted_total",
        "Bulk transfers submitted to the scheduler"};
    /// Keyed by customer and refusal reason.
    telemetry::KeyedCounters rejected{"griphon_bod_transfers_rejected_total",
                                      "Bulk transfers rejected at submission"};
    telemetry::KeyedCounters splits{
        "griphon_bod_transfer_splits_total",
        "Transfers that needed more than one calendar window"};
    telemetry::KeyedCounters accepted{"griphon_bod_transfers_accepted_total",
                                      "Bulk transfers accepted and scheduled"};
    telemetry::KeyedCounters deferrals{
        "griphon_bod_setup_deferrals_total",
        "Bundle setups deferred on an open EMS circuit breaker"};
    telemetry::KeyedCounters retries{"griphon_bod_setup_retries_total",
                                     "Bundle setups retried after a failure"};
    telemetry::KeyedCounters completed{
        "griphon_bod_transfers_completed_total",
        "Bulk transfers that delivered every byte"};
    telemetry::KeyedCounters deadlines_met{
        "griphon_bod_deadlines_met_total",
        "Transfers completed at or before their deadline"};
    telemetry::KeyedCounters deadlines_missed{
        "griphon_bod_deadlines_missed_total",
        "Transfers completed after their deadline"};
    telemetry::KeyedCounters reschedules{
        "griphon_bod_reschedules_total",
        "Scheduled pieces re-planned after capacity loss"};
    telemetry::KeyedCounters failed{
        "griphon_bod_transfers_failed_total",
        "Bulk transfers abandoned before completion"};
    telemetry::KeyedCounters preempted{
        "griphon_bod_windows_preempted_total",
        "Best-effort windows preempted by gold restorations"};
  };
  void count(telemetry::KeyedCounters& family, CustomerId customer);
  [[nodiscard]] core::CustomerPortal* portal_of(CustomerId customer) const;

  core::GriphonController* controller_;
  sim::Engine* engine_;
  ReservationCalendar* calendar_;
  AdmissionController* admission_;
  Params params_;
  std::unordered_map<CustomerId, core::CustomerPortal*> portals_;
  std::map<TransferId, Transfer> transfers_;
  /// Transfers in kScheduled or kActive: every walk that only concerns
  /// live transfers iterates this, in id order, instead of the history.
  std::set<TransferId> live_;
  IdAllocator<TransferId> ids_;
  Stats stats_;
  Metrics metrics_;
};

[[nodiscard]] constexpr const char* to_string(
    TransferScheduler::TransferState s) noexcept {
  switch (s) {
    case TransferScheduler::TransferState::kScheduled:
      return "scheduled";
    case TransferScheduler::TransferState::kActive:
      return "active";
    case TransferScheduler::TransferState::kCompleted:
      return "completed";
    case TransferScheduler::TransferState::kFailed:
      return "failed";
    case TransferScheduler::TransferState::kCancelled:
      return "cancelled";
  }
  return "?";
}

}  // namespace griphon::bod
