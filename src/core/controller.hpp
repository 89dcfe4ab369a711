// The GRIPhoN controller — the paper's central contribution (§2.2).
//
// "Connection establishment and release based on requests from the CSP are
// handled by the GRIPhoN controller. The controller ... communicates with
// the network elements (FXC controllers, OTN switch EMS, ROADM EMS and NTE
// controllers) in order to create or tear down the connections ordered by
// the CSPs, capacity and resource management, inventory database
// management, failure detection, localization and automated restorations."
//
// The controller is fully asynchronous: every service call returns
// immediately and completes through a callback once the EMS command
// sequence has finished on the simulated network. Command trains run on a
// dependency DAG by default: steps carry explicit ordering edges from the
// builders, independent commands overlap under a bounded per-EMS-domain
// window, and same-domain stateless commands coalesce into one batched
// dialogue. `ExecMode::kSequential` reproduces the 2011 testbed behaviour
// (one dialogue at a time — this is what makes setup take 60-70 s) on the
// same executor, run over a chain where step i depends only on step i-1.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/connection.hpp"
#include "core/ems_health.hpp"
#include "core/failure_manager.hpp"
#include "core/inventory.hpp"
#include "core/network_model.hpp"
#include "core/rwa.hpp"
#include "core/step_dag.hpp"
#include "telemetry/metrics.hpp"

namespace griphon::core {

/// How a command train is pushed to the element managers.
enum class ExecMode : std::uint8_t {
  kSequential = 0,  ///< one dialogue at a time (2011 testbed baseline)
  kDag = 2,         ///< dependency DAG with per-domain windows (default)
};

class GriphonController {
 public:
  struct Params {
    RwaEngine::Params rwa{};
    ExecMode exec_mode = ExecMode::kDag;

    /// Restoration-storm pipeline (DESIGN.md §17). Failed restorable
    /// connections drain from a tier-ordered queue; up to
    /// `max_concurrent` restorations run at once (1 reproduces the 2011
    /// serial pump), each admitted against its dominant EMS domain so a
    /// storm cannot stampede one EMS past its circuit breaker. A failed
    /// attempt lands in a persistent retry backlog with exponential
    /// backoff; after a bounded number of timed retries the entry goes
    /// dormant and only an external event (repair, capacity-freeing
    /// teardown or roll) re-arms it — so the event loop always drains.
    struct RestorationPolicy {
      std::size_t max_concurrent = 1;
      /// Restorations in flight at once against the ROADM EMS, which
      /// dominates every restoration train. All restorations count against
      /// it, so the effective cap is min(max_concurrent, this).
      std::size_t per_domain_inflight = 4;
    };
    RestorationPolicy restoration{};
  };

  using SetupCallback = std::function<void(Result<ConnectionId>)>;
  using DoneCallback = std::function<void(Status)>;

  GriphonController(NetworkModel* model, Params params);

  // --- BoD service API -----------------------------------------------------
  /// Set up a connection; the callback fires when traffic can flow (or the
  /// setup failed and was rolled back).
  void request_connection(const ConnectionRequest& request, SetupCallback cb);
  /// Tear a connection down; callback fires when all resources are freed.
  void release_connection(ConnectionId id, DoneCallback cb);

  [[nodiscard]] const Connection& connection(ConnectionId id) const;
  /// Null when the id is unknown (never existed or already released).
  /// Surfaces holding caller-supplied ids use this instead of connection()
  /// so a stale id degrades to kNotFound rather than a crash.
  [[nodiscard]] const Connection* find_connection(
      ConnectionId id) const noexcept;
  /// The customer's live (not released, not setup-failed) connections,
  /// ascending.
  [[nodiscard]] std::vector<ConnectionId> connections_of(
      CustomerId customer) const;
  /// Connections carrying traffic (Active or Rolling).
  [[nodiscard]] std::size_t active_connections() const noexcept {
    return up_connections_;
  }

  // --- maintenance & grooming ----------------------------------------------
  /// Move one connection to a new, resource-disjoint path with
  /// bridge-and-roll; `avoid` constrains the new path (e.g. the span about
  /// to enter maintenance).
  void bridge_and_roll(ConnectionId id, const Exclusions& avoid,
                       DoneCallback cb);
  /// Roll one Active wavelength connection onto a caller-supplied plan
  /// (the re-optimization subsystem computes plans globally rather than
  /// asking RWA per connection). Validates before touching hardware:
  /// the connection must exist, be a wavelength, be Active (not mid-roll),
  /// the plan must terminate at its endpoints, and the plan must not reuse
  /// any (link, channel) cell of the current plan — during the bridge both
  /// paths are lit simultaneously, so any shared cell would self-collide.
  void roll_to(ConnectionId id, const WavelengthPlan& new_plan,
               DoneCallback cb);
  /// Ids of wavelength-kind connections currently carrying traffic
  /// (Active or Rolling), ascending. The re-optimization planner's input.
  [[nodiscard]] std::vector<ConnectionId> live_wavelength_connections() const;
  /// Roll every wavelength connection off `link` ahead of maintenance.
  void prepare_maintenance(LinkId link, DoneCallback cb);
  /// Revert a restored/rolled connection to its shortest path (re-groom).
  void regroom(ConnectionId id, DoneCallback cb);

  /// Provision a fresh OTU carrier for the OTN layer between two PoPs: a
  /// wavelength is set up on the DWDM layer (consuming spectrum and a pair
  /// of pool transponders as the carrier's line optics) and handed to the
  /// OTN switches as new tributary capacity. Called automatically when a
  /// sub-wavelength request finds the OTN layer full — "the OTN layer with
  /// its switching capability can achieve more efficient packing of
  /// wavelengths" (paper §2.1).
  void groom_new_carrier(NodeId a, NodeId b, DoneCallback cb);
  [[nodiscard]] std::size_t carriers_groomed() const noexcept {
    return carriers_groomed_;
  }
  /// Decommission groomed carriers no circuit uses anymore: retire them in
  /// the OTN layer and release their wavelengths back to the pool.
  void decommission_idle_carriers(DoneCallback cb);

  // --- reconciliation -------------------------------------------------------
  /// What a reconciliation audit found and repaired. Device state is
  /// compared against the union of every live connection's (and groomed
  /// carrier's) expected configuration: configuration with no owner is a
  /// leak (released via best-effort commands); an Active connection whose
  /// devices lost configuration has drifted (marked failed and queued for
  /// restoration).
  struct ResyncReport {
    std::size_t leaked_roadm_uses = 0;
    std::size_t leaked_fxc_connects = 0;
    std::size_t leaked_ots = 0;
    std::size_t leaked_regens = 0;
    std::size_t leaked_nte_ports = 0;
    std::size_t leaked_otn_circuits = 0;
    std::size_t drifted_connections = 0;
    std::size_t repair_commands = 0;
    [[nodiscard]] std::size_t total_leaks() const noexcept {
      return leaked_roadm_uses + leaked_fxc_connects + leaked_ots +
             leaked_regens + leaked_nte_ports + leaked_otn_circuits;
    }
  };
  using ResyncCallback = std::function<void(Result<ResyncReport>)>;

  /// Audit device state against the inventory and repair divergence. Runs
  /// only when the control plane is quiescent (no command trains or
  /// transitional connections) — kBusy otherwise. Triggered automatically
  /// (with deferral until quiescent) when an EMS announces a restart.
  void resync(ResyncCallback cb);

  /// True when no EMS commands or connection state machines are in flight.
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] const EmsHealthTracker& ems_health() const noexcept {
    return ems_health_;
  }

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const Inventory& inventory() const noexcept {
    return inventory_;
  }
  [[nodiscard]] const FailureManager& failure_manager() const noexcept {
    return failures_;
  }
  [[nodiscard]] NetworkModel& model() noexcept { return *model_; }
  [[nodiscard]] const NetworkModel& model() const noexcept { return *model_; }
  /// Shared RWA engine — the BoD service layer plans routes (and hits the
  /// exclusion-keyed route cache) through the same engine restoration uses.
  [[nodiscard]] const RwaEngine& rwa() const noexcept { return rwa_; }

  /// Observer hook for localized plant events: called with the root-cause
  /// links after the controller's own failure/repair handling ran.
  /// `failed` is true for cuts, false for repairs. Used by the BoD
  /// TransferScheduler to re-schedule transfers whose reserved routes lost
  /// capacity mid-flight. One observer; set empty to detach.
  using TopologyObserver =
      std::function<void(const std::vector<LinkId>&, bool failed)>;
  void set_topology_observer(TopologyObserver observer) {
    topology_observer_ = std::move(observer);
  }

  /// Preemption hook: asked to free wavelength capacity between two PoPs
  /// when a gold restoration fails with resource exhaustion. The callee
  /// (the BoD TransferScheduler) tears down best-effort calendar windows
  /// whose routes could serve (src, dst) avoiding `avoid`, and returns how
  /// many windows it preempted. Capacity frees asynchronously — the
  /// retry backlog re-arms on the teardowns. One hook; set empty to
  /// detach.
  using PreemptionHook = std::function<std::size_t(
      NodeId src, NodeId dst, DataRate rate, const std::set<LinkId>& avoid)>;
  void set_preemption_hook(PreemptionHook hook) {
    preemption_hook_ = std::move(hook);
  }

  // --- restoration pipeline introspection ----------------------------------
  /// True from a correlated storm event until the restoration pipeline
  /// has drained (no queue, nothing in flight, no armed backlog retry).
  /// Reopt campaigns hold while this is set.
  [[nodiscard]] bool restoration_storm_active() const noexcept {
    return storm_active_;
  }
  /// Failed-restoration entries awaiting retry (armed or dormant).
  [[nodiscard]] std::size_t restoration_backlog_depth() const noexcept {
    return restore_backlog_.size();
  }
  [[nodiscard]] std::size_t restorations_in_flight() const noexcept {
    return restorations_in_flight_;
  }
  [[nodiscard]] std::size_t restoration_queue_depth() const noexcept {
    return restore_queue_.size();
  }
  /// Re-arm every backlogged restoration now (capacity may have freed).
  /// Called internally after teardowns, completed rolls and repairs; public
  /// for the shell and operators. `reset_attempts` restarts the
  /// exponential-backoff clock (repairs do; capacity kicks keep it).
  void kick_restoration_backlog(bool reset_attempts = false);

  struct Stats {
    std::size_t setups_ok = 0;
    std::size_t setups_failed = 0;
    std::size_t releases = 0;
    std::size_t restorations_ok = 0;
    std::size_t restorations_failed = 0;
    std::size_t restorations_retried = 0;     ///< backlog retry launches
    std::size_t restorations_non_diverse = 0; ///< SRLG-diverse plan fallback
    std::size_t preemptions_requested = 0;    ///< hook invocations
    std::size_t bod_windows_preempted = 0;    ///< windows the hook freed
    std::size_t rolls_ok = 0;
    std::size_t rolls_failed = 0;
    std::size_t commands_issued = 0;
    std::size_t commands_retried = 0;  ///< application-level retries
    std::size_t commands_shed = 0;     ///< failed fast: breaker open
    std::size_t resync_runs = 0;
    std::size_t resync_leaks = 0;
    std::size_t resync_drift = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Stable digest of all configured device state (ROADM uses, FXC
  /// cross-connects, OT tuning/activation, regens, NTE ports, OTN
  /// circuits), independent of the order commands were applied in. Two
  /// controllers that provisioned the same connections must produce equal
  /// digests regardless of ExecMode — the equivalence tests hold the DAG
  /// executor to that.
  [[nodiscard]] std::string device_state_digest() const;

  /// Execution report of the most recent command train (setup, teardown,
  /// restore...), for the shell's `dag` view. Empty steps when no train
  /// has run yet.
  [[nodiscard]] const StepDagReport& last_dag_report() const noexcept {
    return last_dag_report_;
  }

  /// The command train that unwinds everything `c` owns: a wavelength's
  /// path, access and 1+1 standby leg; a sub-wavelength service's ODU
  /// circuit and access. For both kinds the service goes dark first, then
  /// each cross-connect, then the NTE port that cross-connect steered.
  [[nodiscard]] StepList build_release(const Connection& c) const;

 private:
  // Step/StepList live in core/step_dag.hpp — builders attach dependency
  // edges there and the DAG executor consumes them.

  // Sequencing machinery. `done` receives the first error (or success) and
  // the indices of steps that succeeded (rollback input).
  using RunDone = std::function<void(Status, std::vector<std::size_t>)>;
  struct RunState;
  /// Execute a command list on the DAG executor: the builders' edges
  /// under kDag, a chain under kSequential (see ExecMode).
  /// `best_effort` keeps going past failures (teardown paths). A non-zero
  /// `parent_span` wraps every command in a child telemetry span (named
  /// after the command, e.g. "ot.tune"), inheriting the parent's tag.
  void run_steps(std::shared_ptr<StepList> steps, bool best_effort,
                 RunDone done, std::uint64_t parent_span = 0);
  void pump_dag(const std::shared_ptr<RunState>& state);
  void finish_dag(const std::shared_ptr<RunState>& state);
  /// Issue one EMS command with circuit-breaker check and bounded
  /// exponential-backoff retry. `cb` fires once with the final outcome
  /// (kUnavailable without touching the wire when the domain's breaker is
  /// open). Every controller command goes through here.
  void issue_command(proto::RequestClient* client, proto::Message message,
                     proto::RequestClient::ResponseCallback cb,
                     int attempt = 1, std::uint64_t idem_key = 0);
  [[nodiscard]] const std::string& domain_of(
      const proto::RequestClient* client) const;
  /// Run undo commands of the given steps in reverse completion order
  /// (dependents' undos strictly before their dependencies' undos),
  /// ignoring errors, then call done. `parent_span` is the failed
  /// operation's root span (0 for none): each undo dialogue records a
  /// child span under it, as the forward train did.
  void rollback_steps(std::shared_ptr<StepList> steps,
                      std::vector<std::size_t> succeeded,
                      std::function<void()> done, std::uint64_t parent_span);

  /// Probe-free optical admission: re-checks the plan's transparent
  /// segments against the reach model's OSNR budget before any EMS command
  /// is issued, and records the margin as a zero-duration telemetry event
  /// under `parent_span`. Returns kUnreachable when a segment has negative
  /// margin — the setup fails fast instead of discovering the problem via
  /// per-segment quality probes mid-train.
  [[nodiscard]] Status admit_optical_plan(const WavelengthPlan& plan,
                                          DataRate rate,
                                          std::uint64_t parent_span);

  // Plan -> command sequences. The wavelength builders cover the path
  // alone (transponders, ROADMs, regens, power balancing); customer access
  // is built per connection.
  [[nodiscard]] StepList build_wavelength_setup(
      const WavelengthPlan& plan) const;
  [[nodiscard]] StepList build_wavelength_teardown(
      const WavelengthPlan& plan) const;
  /// NTE ports at both premises, then the FXC cross-connects that steer
  /// them onto the service: the endpoint transponders of `c.plan` for a
  /// wavelength, the OTN switch client ports of `c.odu` otherwise.
  [[nodiscard]] StepList build_access_setup(const Connection& c) const;
  // Reservation bookkeeping around a plan.
  void reserve_plan(const WavelengthPlan& plan);
  void unreserve_plan(const WavelengthPlan& plan);

  // Setup flows.
  void setup_wavelength(ConnectionId id, SetupCallback cb);
  void setup_subwavelength(ConnectionId id, SetupCallback cb);
  void send_otn_create(ConnectionId id, SetupCallback cb, bool allow_groom);
  void setup_subwavelength_access(ConnectionId id, SetupCallback cb);
  void finish_setup(ConnectionId id, Status status, SetupCallback cb);

  // Failure handling.
  void handle_alarm_frame(const proto::Frame& frame);
  void on_links_failed(const FailureManager::FailureEvent& event);
  void on_links_repaired(const std::vector<LinkId>& links);
  /// Queue a failed restorable connection; the queue drains in tier order
  /// (gold first), up to restoration.max_concurrent at a time.
  void enqueue_restoration(ConnectionId id);
  void pump_restorations();
  void restore_wavelength(ConnectionId id, std::function<void()> done);
  /// Record a failed attempt in the retry backlog: exponential backoff
  /// while timed retries remain, dormant (event-driven only) after.
  void backlog_restoration(ConnectionId id, const std::string& why);
  /// Clear the storm flag once the pipeline has fully drained.
  void maybe_clear_storm();
  void update_restoration_gauges();
  void mark_failed(Connection& c);
  void mark_recovered(Connection& c);
  /// 1+1 tail-end switch: if the leg not carrying traffic survives, move
  /// traffic onto it after the roll hit. `failover` (the working leg died)
  /// counts a restoration; a switch back onto a repaired leg does not.
  void tail_end_switch(const Connection& c, bool failover);

  // Bridge-and-roll core (shared by maintenance, re-groom, reversion).
  void roll_to_plan(ConnectionId id, const WavelengthPlan& new_plan,
                    DoneCallback cb);

  // Reconciliation.
  void schedule_resync();
  void try_auto_resync();
  void do_resync(std::function<void(const ResyncReport&)> done);
  /// Expected device configuration of a live connection, expressed as the
  /// setup commands that would create it.
  [[nodiscard]] StepList expected_steps_for(const Connection& c) const;

  /// The only writer of Connection::state and of the live-connection
  /// index. Asserts that (c.state, to) is in the transition table; a fresh
  /// record (kPending, not yet indexed) enters the index with to=kPending.
  void set_state(Connection& c, ConnectionState to);

  [[nodiscard]] Connection& conn(ConnectionId id);
  [[nodiscard]] Connection* find_conn(ConnectionId id);
  [[nodiscard]] Result<std::size_t> pick_free_nte_port(MuxponderId nte);
  void release_nte_port(MuxponderId nte, std::size_t port);

  NetworkModel* model_;
  Params params_;
  Inventory inventory_;
  RwaEngine rwa_;
  FailureManager failures_;
  EmsHealthTracker ems_health_;
  /// Every connection ever requested, by id: released and setup-failed
  /// records stay for accounting. Lookup only — scans walk `live_`.
  std::unordered_map<ConnectionId, Connection> connections_;
  /// Live-connection index, written only by set_state(): ids of
  /// non-terminal connections, ascending, whole and per customer, plus
  /// counts of up (Active/Rolling) and transitional connections.
  std::set<ConnectionId> live_;
  std::unordered_map<CustomerId, std::set<ConnectionId>> live_by_customer_;
  std::size_t up_connections_ = 0;
  std::size_t transitional_connections_ = 0;
  std::map<OduCircuitId, ConnectionId> odu_to_connection_;
  std::size_t carriers_groomed_ = 0;
  std::map<CarrierId, WavelengthPlan> groomed_plans_;
  std::set<std::pair<MuxponderId, std::size_t>> reserved_nte_ports_;
  std::vector<ConnectionId> restore_queue_;  ///< ready, tier-sorted
  /// Failed restorations awaiting another try. An entry lives from the
  /// first failed attempt until the connection recovers or is released;
  /// non-dormant entries always have either a backoff timer armed, a
  /// queue slot, or an attempt in flight.
  struct BacklogEntry {
    int attempts = 0;           ///< failed attempts so far
    int preemptions = 0;        ///< BoD preemption rounds triggered
    bool dormant = false;       ///< timed retries exhausted; event-driven
    std::uint64_t generation = 0;  ///< bumps on re-arm; stale timers no-op
  };
  std::map<ConnectionId, BacklogEntry> restore_backlog_;
  std::size_t restorations_in_flight_ = 0;
  bool storm_active_ = false;
  std::size_t pending_commands_ = 0;  ///< EMS commands awaiting a response
  bool resync_scheduled_ = false;
  int resync_attempts_ = 0;
  std::map<const proto::RequestClient*, std::string> client_domains_;
  TopologyObserver topology_observer_;
  PreemptionHook preemption_hook_;
  IdAllocator<ConnectionId> ids_;
  Stats stats_;
  StepDagReport last_dag_report_;

  /// A counter kept twice per event: the fleet-wide series and the
  /// customer's own (customer isolation must be observable).
  struct CustomerCounter {
    CustomerCounter(const char* name, const char* help) noexcept
        : total(name, help), by_customer(name, help) {}
    void inc(telemetry::MetricsRegistry& m, CustomerId customer) {
      total.in(m).inc();
      by_customer.in(m, "customer", customer.value()).inc();
    }
    telemetry::CachedCounter total;
    telemetry::KeyedCounters by_customer;
  };
  /// Every metric the controller records, registered on first use: with
  /// telemetry armed, no request, setup, release, restoration, roll or
  /// audit looks up a metric by name.
  struct Metrics {
    static constexpr double kRollHitBuckets[] = {0.001, 0.005, 0.01, 0.025,
                                                 0.05,  0.1,   0.25, 0.5,
                                                 1.0};
    telemetry::CachedCounter requests{
        "griphon_controller_requests_total",
        "Connection requests accepted for orchestration"};
    CustomerCounter setups_ok{"griphon_controller_setups_ok_total",
                              "Connection setups completed"};
    CustomerCounter setups_failed{"griphon_controller_setups_failed_total",
                                  "Connection setups failed and rolled back"};
    telemetry::CachedHistogram setup_seconds{
        "griphon_controller_setup_seconds",
        "Request to traffic-flowing, end to end"};
    CustomerCounter releases{"griphon_controller_releases_total",
                             "Connections released"};
    telemetry::CachedCounter restorations_ok{
        "griphon_controller_restorations_ok_total",
        "Wavelength restorations completed"};
    telemetry::CachedCounter restorations_failed{
        "griphon_controller_restorations_failed_total",
        "Wavelength restoration attempts that failed"};
    telemetry::CachedHistogram restore_seconds{
        "griphon_controller_restore_seconds",
        "Restoration start to traffic back, end to end"};
    telemetry::CachedCounter rolls_ok{"griphon_controller_rolls_ok_total",
                                      "Bridge-and-roll operations completed"};
    telemetry::CachedCounter rolls_failed{
        "griphon_controller_rolls_failed_total",
        "Bridge-and-roll attempts that failed"};
    telemetry::CachedHistogram roll_hit_seconds{
        "griphon_controller_roll_hit_seconds",
        "Traffic hit while rolling between bridged paths", kRollHitBuckets};
    telemetry::CachedCounter resync_runs{
        "griphon_controller_resync_runs_total", "Reconciliation audits run"};
    telemetry::CachedCounter resync_leaks{
        "griphon_controller_resync_leaks_total",
        "Unowned device configuration found by audits"};
    telemetry::CachedCounter resync_drift{
        "griphon_controller_resync_drift_total",
        "Connections found missing device configuration"};
    telemetry::CachedCounter resync_repairs{
        "griphon_controller_resync_repairs_total",
        "Repair commands issued by audits"};
    telemetry::CachedCounter storms{
        "griphon_restoration_storms_total",
        "Correlated failure storms entering the restoration pipeline"};
    telemetry::CachedCounter retries{"griphon_restoration_retries_total",
                                     "Backlogged restorations relaunched"};
    telemetry::CachedCounter non_diverse{
        "griphon_restoration_non_diverse_total",
        "Restorations that fell back to a non-SRLG-diverse path"};
    telemetry::CachedCounter preemptions{
        "griphon_restoration_preemptions_total",
        "Best-effort BoD windows preempted for gold restorations"};
    telemetry::CachedGauge backlog_depth{
        "griphon_restoration_backlog_depth",
        "Failed restorations awaiting retry (armed + dormant)"};
    telemetry::CachedGauge queue_depth{
        "griphon_restoration_queue_depth",
        "Failed connections ready for restoration, tier-ordered"};
    telemetry::CachedGauge in_flight{
        "griphon_restoration_in_flight",
        "Restoration command trains currently running"};
    telemetry::CachedGauge storm_active{
        "griphon_restoration_storm_active",
        "1 while a correlated failure storm is being worked"};
  };
  Metrics metrics_;
};

}  // namespace griphon::core
