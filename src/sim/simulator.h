// Discrete-event storage-cluster simulator.
//
// Reproduces the paper's measurement setup (SIV/SV):
//  * Closed-loop clients replay their share of the trace records; each file
//    operation fans out into per-OSD object page I/O via the cluster's
//    RAID-5 mapping, and the next record is issued when the previous
//    operation fully completes.
//  * Every OSD serves its queue in FIFO order.  A flat (paper-model) device
//    serves one request at a time ("osc-osd ... handles them serially"); a
//    parallel-geometry device up to `osd_queue_depth` at once.  Each request
//    in service sits in a device slot until its completion event.  The
//    per-request service time is a fixed software/network overhead plus the
//    flash simulator's device time, which includes GC stalls.
//  * The data mover executes a migration plan on `mover_concurrency`
//    parallel lanes; its chunked reads/writes share the OSD queues with
//    foreground traffic.  HDF blocks foreground requests to an object
//    while its own copy is in flight -- the Fig. 7 spike; CDF and CMT
//    (which forwards, as Sorrento does) only compete for bandwidth.
//  * An epoch tick advances object-temperature decay every simulated
//    minute and, in monitor mode, evaluates the wear-imbalance trigger.
//
// The event loop is serial and fully deterministic; parallelism lives one
// level up, across independent experiment cells (src/runner).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "core/policy.h"
#include "core/sigma_estimator.h"
#include "core/temperature.h"
#include "sim/event_queue.h"
#include "sim/fault_injector.h"
#include "sim/health_monitor.h"
#include "sim/metrics.h"
#include "sim/retry_policy.h"
#include "trace/record.h"
#include "util/ewma.h"
#include "util/ring_queue.h"
#include "util/types.h"
#include "workload/tenant.h"

namespace edm::telemetry {
class Recorder;
class Tracer;
class Sampler;
class Counter;
class Histogram;
}  // namespace edm::telemetry

namespace edm::trace {
class TraceCursor;
}  // namespace edm::trace

namespace edm::sim {

enum class MigrationTrigger {
  kNone,            // baseline: never migrate
  kForcedMidpoint,  // one forced shuffle when half the records are issued
  kMonitor,         // wear monitor decides at every epoch tick
};

struct SimConfig {
  std::uint16_t num_clients = 8;

  /// Concurrent file operations per client (the paper's replayer is
  /// multi-threaded).  Depth > 1 is what lets a hot OSD actually build a
  /// queue -- the congestion migration is supposed to relieve.
  std::uint32_t client_queue_depth = 8;

  /// Software + network time per OSD sub-request on top of device time.
  SimDuration request_overhead_us = 100;

  /// Concurrent in-service requests per OSD.  The paper's OSD "handles
  /// them serially", and flat (paper-model) devices always serve at depth
  /// 1 regardless of this knob -- a serial device has nothing to overlap.
  /// Parallel-geometry devices (FlashConfig::parallel_timing()) honour
  /// depths > 1: up to this many requests are dispatched into the
  /// device's channel/die/plane pipeline concurrently, which is what
  /// makes geometry actually buy throughput (bench/ext_parallelism).
  std::uint32_t osd_queue_depth = 1;

  /// Temperature epoch length; the paper evaluates the wear model "every
  /// minute".
  SimDuration epoch_length_us = 60 * 1000 * 1000;

  /// Fig. 7 aggregation window ("average response time for file operations
  /// served in the past 3 minutes").
  SimDuration response_window_us = 180ull * 1000 * 1000;

  MigrationTrigger trigger = MigrationTrigger::kForcedMidpoint;

  /// Epoch ticks between monitor-initiated migrations (damping).
  std::uint32_t monitor_cooldown_epochs = 5;

  std::uint32_t mover_concurrency = 4;   // parallel migration streams
  std::uint32_t mover_chunk_pages = 256; // pages per mover sub-request

  /// Per-lane mover throughput cap in MB/s (0 = device-speed, unthrottled).
  /// The real data mover copies objects through the network + OSD protocol
  /// stack; 8 MB/s per lane (32 MB/s aggregate) is a conservative share of
  /// a GbE cluster under foreground load.  The fig7 bench slows this down
  /// to stretch the migration phase across its measurement windows.
  double mover_lane_mbps = 8.0;

  /// CMT load-factor smoothing.  Small alpha = long effective window
  /// (~1/alpha requests); a twitchy load factor mis-ranks devices.
  double load_ewma_alpha = 0.002;

  /// Memory bound of the access tracker's temperature maps, in entries per
  /// map (paper SIV: "we cache only part of the objects' metadata in
  /// memory").  0 = unbounded.
  std::size_t temperature_cache_entries = 0;

  /// Online sigma calibration: every epoch, per-device (Wc, u, Ec)
  /// observations feed a SigmaEstimator, and the policy's wear model is
  /// refit before each migration decision.  Extension beyond the paper's
  /// fixed sigma = 0.28.
  bool adaptive_sigma = false;

  /// Legacy failure injection: fail this OSD when `fail_at_fraction` of
  /// the records have been issued (-1 = no injection).  Routed through the
  /// same degraded-mode machinery as `faults` below; prefer a FaultPlan
  /// for anything beyond a single fraction-triggered failure.
  std::int32_t fail_osd = -1;
  double fail_at_fraction = 0.5;

  /// Scheduled fail/rebuild/fail-slow events + seeded transient I/O
  /// errors, consumed by the event loop as first-class events (see
  /// fault_injector.h).
  FaultPlan faults;

  /// Online fail-slow detection (EWMA latency scoring against the fleet
  /// median) and its mitigations -- hedged reads and quarantine-and-drain
  /// (see health_monitor.h).  Disabled by default: runs without it replay
  /// bit-identically to the pre-health tree.
  HealthConfig health;

  /// Capped exponential backoff for transient-error retries (clients, the
  /// data mover, and rebuild traffic all share it).
  RetryPolicy retry;

  /// Online rebuild: parallel reconstruction streams and their chunking.
  /// Each lane rebuilds one object at a time -- k-1 peer chunk reads
  /// through the normal OSD queues, then a paced chunk write to the
  /// destination -- so rebuild contends with foreground I/O instead of
  /// mutating state instantaneously.
  std::uint32_t rebuild_lanes = 2;
  std::uint32_t rebuild_chunk_pages = 256;

  /// Per-lane rebuild throughput cap in MB/s (0 = device-speed).
  double rebuild_lane_mbps = 32.0;

  /// Per-run telemetry recorder (null = telemetry off; every hot-path
  /// guard is then a single pointer test).  Owned by the caller -- one
  /// recorder per simulation, never shared across threads -- and must
  /// outlive run().  The simulator drives its DES clock and attaches it
  /// to the cluster, flash devices and policy.
  telemetry::Recorder* recorder = nullptr;

  /// Rejects invalid knob combinations (needs the cluster size to check
  /// FaultPlan device ids).  Called by the Simulator constructor.
  void validate(std::uint32_t num_osds) const;
};

class Simulator {
 public:
  /// `policy` may be null (baseline).  Replays `trace` in place through an
  /// owned TraceCursor over it (one lane per client; no record is copied).
  /// Cluster and trace must outlive run().
  Simulator(SimConfig config, cluster::Cluster& cluster,
            const trace::Trace& trace, core::MigrationPolicy* policy);

  /// Replays the cursor's lanes: the closed-loop input every trace replay
  /// goes through.  A streaming cursor keeps trace memory at
  /// O(clients x lookahead) (see trace/cursor.h) and replays the identical
  /// event sequence as the materialised trace of the same profile and
  /// client count.  The cursor needs one lane per client
  /// (lanes() == num_clients, else std::invalid_argument).  Cluster and
  /// cursor must outlive run().
  Simulator(SimConfig config, cluster::Cluster& cluster,
            trace::TraceCursor& cursor, core::MigrationPolicy* policy);

  /// Open-loop variant: arrival events from the multi-tenant source feed
  /// the OSD queues directly at their stamped absolute times -- no
  /// per-client queue-depth gating, so offered load can exceed what the
  /// cluster absorbs and queue growth is the measured signal.  num_clients
  /// and client_queue_depth are ignored; per-tenant SLO accounting lands
  /// in RunResult::workload.  Cluster and source must outlive run().
  Simulator(SimConfig config, cluster::Cluster& cluster,
            workload::OpenLoopSource& arrivals, core::MigrationPolicy* policy);

  ~Simulator();

  /// Runs the replay to completion and returns the collected metrics.
  /// Must be called at most once per Simulator instance.
  RunResult run();

  /// Snapshot assembly, exposed for tests and for out-of-band planning.
  core::ClusterView build_view() const;

  const core::AccessTracker& access_tracker() const { return tracker_; }

  /// Sigma of the policy's wear model: the last fit installed before a
  /// plan (adaptive mode), else the configured value.  No fresh fit.
  double current_sigma() const;

 private:
  struct SubRequest {
    enum class Kind : std::uint8_t { kClient, kMover, kRebuild };
    Kind kind = Kind::kClient;
    std::uint32_t owner = 0;  // op-slot index or mover/rebuild lane id
    cluster::OsdIo io;
    SimTime enqueue_time = 0;
    std::uint32_t attempts = 0;  // transient-error failures so far
    std::uint32_t gen = 0;       // lane generation (mover/rebuild kinds)
    // Hedged-read linkage (client reads only): slot index into
    // hedge_slots_, kNoHedge when unhedged.  hedge_peer marks the k-1
    // reconstruction reads a fired hedge issued.
    std::uint32_t hedge = kNoHedge;
    bool hedge_peer = false;
  };
  static constexpr std::uint32_t kNoHedge = 0xFFFFFFFFu;

  /// One armed hedged read: a client read dispatched to a health-flagged
  /// OSD.  If the primary has not completed by the hedge deadline, the
  /// slot fires k-1 RAID-5 peer reads; whichever side finishes first
  /// completes the op sub-request (resolved), the loser is absorbed.  The
  /// slot is recycled once the primary has landed and no peer reads remain
  /// in flight; gen stales deadline events of old incarnations.
  struct HedgeSlot {
    std::uint32_t op_id = 0;
    cluster::OsdIo io;  // the primary read (peer reads derive from it)
    SimTime armed_at = 0;
    std::uint32_t gen = 0;
    std::uint32_t peers_outstanding = 0;
    bool fired = false;         // peer reads issued
    bool resolved = false;      // op sub-request completion handled
    bool primary_done = false;  // primary landed (any way)
    bool peers_failed = false;  // a peer read was lost; hedge cannot win
  };

  /// One in-flight file operation (a client may have several).
  struct OpState {
    std::uint16_t client = 0;
    std::uint16_t tenant = 0;  // open-loop mode only (else 0)
    std::uint32_t outstanding = 0;
    SimTime start = 0;
  };

  struct OsdServer {
    // Ring, not deque: this queue breathes on every dispatch, and deque
    // chunk churn was measurable in the replay profile.
    util::RingQueue<SubRequest> queue;
    // Requests in service, each parked in a device slot; at most
    // osd_qd_[osd].
    std::uint32_t inflight = 0;
    util::Ewma load;
    std::uint64_t served = 0;
    SimDuration busy_us = 0;  // total service time (overhead + device)
    explicit OsdServer(double alpha) : load(alpha) {}
  };

  struct Client {
    // The lane's current run: a span into the materialised trace, or the
    // streaming cursor's one-record span.  fill_client_window walks it
    // sequentially and asks the cursor for the next run only when it is
    // used up; the cursor prefetches that run, so a lane that trails the
    // others by a few hundred KiB of trace does not miss on it.
    std::span<const trace::Record> run;
    std::size_t next = 0;  // index of the next record of `run` to issue
    std::uint32_t in_flight = 0;  // ops currently outstanding
    bool exhausted = false;  // the cursor lane ran dry
    bool done = false;
  };

  struct MoverLane {
    std::deque<core::MigrationAction> actions;
    bool active = false;
    core::MigrationAction current;
    std::uint32_t pages_done = 0;
    std::uint32_t chunk_pages = 0;
    bool writing = false;
    std::uint32_t gen = 0;  // bumped on abort; stale chunks are dropped
    SimTime move_start = 0;  // when the current move began (trace spans)
  };

  /// One online-rebuild stream: reconstructs one object at a time in
  /// chunks (k-1 parallel peer reads, then a paced destination write).
  struct RebuildLane {
    bool active = false;
    ObjectId oid = 0;
    OsdId dst = 0;
    std::uint32_t pages = 0;
    std::uint32_t pages_done = 0;
    std::uint32_t chunk_pages = 0;
    std::uint32_t reads_outstanding = 0;
    bool writing = false;
    std::uint32_t gen = 0;  // bumped on abort; stale chunks are dropped
    SimTime start = 0;  // when the current object's copy began (trace spans)
  };

  // --- open-loop injection ---
  /// kArrival handler: injects every arrival due at `now`, then schedules
  /// the next one.
  void on_arrival(SimTime now);
  void inject_arrival(const workload::Arrival& arrival, SimTime now);
  /// Per-tenant completion accounting for an open-loop op.
  void account_tenant_completion(std::uint16_t tenant, SimTime now,
                                 SimDuration response_us);

  // --- client side ---
  void fill_client_window(std::uint16_t client_id, SimTime now);
  std::uint32_t alloc_op(std::uint16_t client_id, SimTime now);
  void release_op(std::uint32_t op_id);
  /// Completes one client sub-request of an op; fires op completion when
  /// it was the last outstanding one.
  void complete_client_subrequest(std::uint32_t op_id, SimTime now);

  // --- OSD service ---
  void enqueue(SubRequest req, SimTime now);
  void dispatch(OsdId osd, SimTime now);
  void process_one(SubRequest req, OsdId osd, SimTime now);
  /// kOsdComplete handler: the request in device slot `payload` finished
  /// service.  Frees the slot, then load/served accounting, health
  /// observation, transient-error retries, kind dispatch, and the
  /// follow-up dispatch() of the freed capacity.
  void on_osd_complete(std::uint64_t payload, SimTime now);
  /// Whether `osd` can put another request into service right now.
  bool can_accept(OsdId osd) const {
    return servers_[osd].inflight < osd_qd_[osd];
  }
  /// `now` is the dispatch time handed to parallel-geometry devices (their
  /// bus/die/plane timelines are absolute); flat devices ignore it.
  SimDuration execute(const cluster::OsdIo& io, SimTime now);
  /// True when a mover/rebuild sub-request belongs to an aborted lane
  /// incarnation and must be dropped instead of acted on.
  bool stale(const SubRequest& req) const;

  // --- failure injection ---
  void maybe_inject_failure(SimTime now);
  void schedule_next_fault();
  void on_fault_event(SimTime now);
  void apply_fail(OsdId id, SimTime now);
  void apply_rebuild(OsdId id, SimTime now);
  /// Resolves a client sub-request whose target OSD is failed: writes are
  /// lost (counted), reads fan out to k-1 reconstruction peer reads or are
  /// counted unavailable.  The op always completes.
  void resolve_degraded_client(SubRequest req, SimTime now);
  void schedule_retry(SubRequest req, SimTime when);
  void on_retry_resume(std::uint64_t slot, SimTime now);

  // --- migration ---
  void maybe_trigger_midpoint(SimTime now);
  void start_migration(SimTime now, bool force);
  void advance_lane(std::uint16_t lane_id, SimTime now);
  void issue_mover_chunk(std::uint16_t lane_id, SimTime now);
  void on_mover_chunk_complete(const SubRequest& req, SimTime now);
  /// Aborts the lane's in-flight move (releasing the destination
  /// reservation); optionally re-plans it onto a healthy group peer, and
  /// resumes the lane under backoff.
  void abort_lane_migration(std::uint16_t lane_id, SimTime now, bool replan);
  void release_blocked(ObjectId oid, SimTime now);
  bool mover_active() const;

  // --- online rebuild ---
  void start_rebuild(OsdId dead, SimTime now);
  void advance_rebuild_lane(std::uint32_t lane_id, SimTime now);
  void issue_rebuild_chunk(std::uint32_t lane_id, SimTime now);
  void on_rebuild_subrequest_complete(const SubRequest& req, SimTime now);
  void abort_rebuild_object(std::uint32_t lane_id, SimTime now, bool requeue);
  void maybe_finish_rebuild(SimTime now);
  /// Whether the lane's current reconstruction involves `osd` (as a peer
  /// source or the write destination).
  bool rebuild_lane_touches(const RebuildLane& lane, OsdId osd) const;

  // --- online health (fail-slow detection & mitigation) ---
  void on_health_check(SimTime now);
  /// Quarantines / un-quarantines on monitor transitions; a fresh
  /// quarantine starts a drain of the device's hottest objects.
  void apply_health_transition(const HealthMonitor::Transition& t,
                               SimTime now);
  /// Queues up to drain_max_objects of `osd`'s hottest objects onto the
  /// mover lanes (healthy destinations only).
  void start_drain(OsdId osd, SimTime now);
  /// Arms a hedge slot for a client read headed to a flagged OSD.
  void arm_hedge(SubRequest& req, SimTime now);
  void on_hedge_deadline(std::uint64_t payload, SimTime now);
  /// Client-subrequest completion with hedge routing: unhedged requests
  /// complete the op directly; hedged primaries/peers race through their
  /// slot (first completion wins, the other side is absorbed).
  void complete_client(const SubRequest& req, SimTime now);
  /// Drops a hedged sub-request that can no longer complete normally
  /// (abandoned retries, failed-OSD absorption).  Completes the op via the
  /// slot when the request still owned that duty.
  void fail_hedged_subrequest(const SubRequest& req, SimTime now);
  void maybe_free_hedge_slot(std::uint32_t slot);

  // --- telemetry ---
  /// Resolves tracer/sampler/metric handles once and hooks the recorder
  /// into the cluster, flash devices and policy.  No-op when disabled.
  void setup_telemetry();
  void on_telemetry_sample(SimTime now);

  // --- bookkeeping ---
  void on_epoch_tick(SimTime now);
  void record_response(SimTime now, SimDuration response_us);
  /// "Foreground work remains": closed-loop lanes still replaying, or (open
  /// loop) arrivals still pending / injected ops still in flight.
  bool clients_active() const {
    return active_clients_ > 0 || arrival_pending_ || openloop_in_flight_ > 0;
  }

  /// Shared body of the public constructors: exactly one of
  /// trace/cursor/arrivals is non-null.
  Simulator(SimConfig config, cluster::Cluster& cluster,
            const trace::Trace* trace, trace::TraceCursor* cursor,
            workload::OpenLoopSource* arrivals, core::MigrationPolicy* policy);

  SimConfig cfg_;
  cluster::Cluster& cluster_;
  std::unique_ptr<trace::TraceCursor> owned_cursor_;  // over a Trace
  trace::TraceCursor* cursor_;       // closed-loop replay (else null)
  workload::OpenLoopSource* arrivals_;  // open-loop mode (else null)
  std::uint64_t total_records_ = 0;  // for midpoint / fail-fraction hooks
  core::MigrationPolicy* policy_;

  EventQueue events_;
  std::vector<OsdServer> servers_;
  /// Effective service depth per OSD: cfg_.osd_queue_depth for devices on
  /// the parallel timing path, 1 for flat devices (definitionally serial).
  std::vector<std::uint32_t> osd_qd_;
  /// Requests in service on any OSD, one slot each; the slot index rides
  /// the kOsdComplete event payload.
  struct DeviceSlot {
    SubRequest req;
    SimTime service_start = 0;
  };
  std::vector<DeviceSlot> device_slots_;
  std::vector<std::uint32_t> free_device_slots_;
  std::vector<Client> clients_;
  std::vector<MoverLane> lanes_;
  std::vector<OpState> ops_;          // op-slot pool
  std::vector<std::uint32_t> free_ops_;
  core::AccessTracker tracker_;

  // Adaptive-sigma state: per-device counters at the previous epoch tick.
  struct WearSnapshot {
    std::uint64_t erases = 0;
    std::uint64_t writes = 0;
  };
  std::unique_ptr<core::SigmaEstimator> sigma_estimator_;
  std::vector<WearSnapshot> wear_snapshots_;

  /// Objects whose foreground access must block (HDF/CMT during movement).
  std::unordered_set<ObjectId> blocked_;
  std::unordered_map<ObjectId, std::vector<SubRequest>> parked_;

  std::uint64_t issued_records_ = 0;
  std::uint64_t completed_ops_ = 0;
  std::uint32_t active_clients_ = 0;
  bool midpoint_fired_ = false;
  std::uint32_t epochs_since_migration_ = 0;
  SimTime last_completion_ = 0;
  bool ran_ = false;

  // response-time accounting
  std::vector<std::uint64_t> window_count_;
  std::vector<double> window_sum_us_;
  // Incremental response-window cursor (completions arrive in event-time
  // order, so record_response never divides).  window_end_ is the
  // exclusive end of cur_window_; set from cfg_ at construction.
  std::size_t cur_window_ = 0;
  SimTime window_end_ = 0;
  util::StreamingStats response_stats_;
  util::LogHistogram response_hist_;

  MigrationMetrics migration_;
  DegradedMetrics degraded_;
  FaultMetrics faults_;
  bool failure_injected_ = false;

  // Fault-injection state.
  std::unique_ptr<FaultInjector> injector_;
  std::vector<SubRequest> retry_slots_;  // requests waiting out a backoff
  std::vector<std::uint32_t> free_retry_slots_;

  // Online-health state (null when cfg_.health.enabled is false).
  std::unique_ptr<HealthMonitor> monitor_;
  bool hedge_enabled_ = false;  // health.enabled && health.mitigate
  std::vector<HedgeSlot> hedge_slots_;
  std::vector<std::uint32_t> free_hedge_slots_;
  /// Objects queued by start_drain and not yet moved: drain moves never
  /// block foreground access (unlike HDF plan moves) and completions are
  /// counted into health_.drain_moved.
  std::unordered_set<ObjectId> drain_oids_;
  std::vector<HealthMonitor::Transition> transition_scratch_;
  HealthMetrics health_;

  // Open-loop injection state (all dormant in closed-loop mode).
  struct TenantState {
    util::StreamingStats stats;
    util::LogHistogram hist;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t slo_violations = 0;
    SimDuration slo_us = 0;
    telemetry::Counter* tel_ops = nullptr;
    telemetry::Histogram* tel_hist = nullptr;
  };
  workload::Arrival next_arrival_;
  bool arrival_pending_ = false;
  std::uint64_t openloop_in_flight_ = 0;  // injected ops not yet completed
  SimTime last_arrival_at_ = 0;
  std::uint64_t openloop_peak_queue_ = 0;
  std::vector<TenantState> tenants_;

  // Telemetry handles, resolved once by setup_telemetry() (all null when
  // the run has no recorder; hot paths guard with one pointer test).
  telemetry::Recorder* tel_ = nullptr;
  telemetry::Tracer* tel_tracer_ = nullptr;
  telemetry::Sampler* tel_sampler_ = nullptr;
  telemetry::Counter* tel_ops_completed_ = nullptr;
  telemetry::Counter* tel_requests_retried_ = nullptr;
  telemetry::Counter* tel_requests_abandoned_ = nullptr;
  telemetry::Histogram* tel_response_hist_ = nullptr;

  // Online-rebuild state (one target at a time; later rebuild events for
  // other devices queue behind it).
  std::vector<RebuildLane> rebuild_lanes_;
  std::deque<ObjectId> rebuild_queue_;
  OsdId rebuild_target_ = 0;
  bool rebuild_running_ = false;
  std::deque<OsdId> pending_rebuilds_;

  // scratch to avoid per-op allocation
  std::vector<cluster::OsdIo> io_scratch_;
};

}  // namespace edm::sim
