#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.h"
#include "trace/cursor.h"

namespace edm::sim {

namespace {
/// Pages per copy-lane sub-request, mover and rebuild chunks alike.
constexpr std::uint32_t kCopyChunkPages = 256;

/// Data mover streams; a plan's moves are dealt round-robin over them.
constexpr std::uint32_t kMoverLanes = 4;

/// Online rebuild streams.  Each rebuilds one object at a time -- k-1
/// sibling chunk reads through the normal OSD queues, then a paced chunk
/// write to the destination -- so rebuild contends with foreground I/O
/// instead of mutating state instantaneously.
constexpr std::uint32_t kRebuildLanes = 2;

/// Per-lane rebuild throughput cap in MB/s.
constexpr double kRebuildLaneMbps = 32.0;

/// Smoothing of each OSD's load factor, the EWMA latency CMT balances on.
/// Small alpha = long effective window (~1/alpha requests); a twitchy load
/// factor mis-ranks devices.
constexpr double kLoadEwmaAlpha = 0.002;

/// Objects drained off a freshly quarantined OSD, hottest first.
constexpr std::uint32_t kDrainMaxObjects = 128;

/// Devices quarantined at once; flags beyond the cap are hedged around but
/// not drained (see apply_health_transition).
constexpr std::uint32_t kMaxQuarantined = 1;

/// A client read sitting on a flagged OSD this long past its enqueue fires
/// a hedged RAID-5 reconstruction read (first completion wins).
constexpr SimDuration kHedgeDeadlineUs = 20 * 1000;

/// Pacing/backoff events carry the lane id and its generation so that a
/// resume scheduled for an aborted lane incarnation is dropped instead of
/// double-driving the lane.
std::uint64_t lane_payload(std::uint32_t lane_id, std::uint32_t gen) {
  return static_cast<std::uint64_t>(lane_id) |
         (static_cast<std::uint64_t>(gen) << 32);
}
std::uint32_t payload_lane(std::uint64_t payload) {
  return static_cast<std::uint32_t>(payload & 0xFFFFFFFFull);
}
std::uint32_t payload_gen(std::uint64_t payload) {
  return static_cast<std::uint32_t>(payload >> 32);
}
/// Index of a free slot of a pool (ops, device, retry and hedge slots):
/// the last one freed, else a new default-constructed slot at the end.
template <typename T>
std::uint32_t take_slot(std::vector<T>& slots,
                        std::vector<std::uint32_t>& free_slots) {
  if (free_slots.empty()) {
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }
  const std::uint32_t slot = free_slots.back();
  free_slots.pop_back();
  return slot;
}
}  // namespace

void SimConfig::validate(std::uint32_t num_osds) const {
  if (num_clients == 0) {
    throw std::invalid_argument("SimConfig: num_clients must be > 0");
  }
  // Zero depth, epoch or window would never terminate: no client ever
  // issues, an epoch tick re-pushes itself at the same instant, and
  // record_response never advances its window.
  if (client_queue_depth == 0) {
    throw std::invalid_argument("SimConfig: client_queue_depth must be >= 1");
  }
  if (epoch_length_us == 0) {
    throw std::invalid_argument("SimConfig: epoch_length_us must be > 0");
  }
  if (response_window_us == 0) {
    throw std::invalid_argument("SimConfig: response_window_us must be > 0");
  }
  if (osd_queue_depth == 0) {
    throw std::invalid_argument("SimConfig: osd_queue_depth must be >= 1");
  }
  if (mover_lane_mbps < 0.0) {
    throw std::invalid_argument(
        "SimConfig: mover_lane_mbps must be >= 0 (0 = unthrottled)");
  }
  retry.validate();
  faults.validate(num_osds);
  if (health.enabled) health.validate();
}

Simulator::Simulator(SimConfig config, cluster::Cluster& cluster,
                     const trace::Trace& trace, core::MigrationPolicy* policy)
    : Simulator(std::move(config), cluster, &trace, nullptr, nullptr, policy) {
}

Simulator::Simulator(SimConfig config, cluster::Cluster& cluster,
                     trace::TraceCursor& cursor, core::MigrationPolicy* policy)
    : Simulator(std::move(config), cluster, nullptr, &cursor, nullptr,
                policy) {}

Simulator::Simulator(SimConfig config, cluster::Cluster& cluster,
                     workload::OpenLoopSource& arrivals,
                     core::MigrationPolicy* policy)
    : Simulator(std::move(config), cluster, nullptr, nullptr, &arrivals,
                policy) {}

Simulator::Simulator(SimConfig config, cluster::Cluster& cluster,
                     const trace::Trace* trace, trace::TraceCursor* cursor,
                     workload::OpenLoopSource* arrivals,
                     core::MigrationPolicy* policy)
    : cfg_(config),
      cluster_(cluster),
      cursor_(cursor),
      arrivals_(arrivals),
      policy_(policy),
      tracker_(config.temperature_cache_entries) {
  cfg_.validate(cluster_.num_osds());
  // A materialised trace replays in place through a cursor over it, with
  // one lane per client.
  if (trace != nullptr) {
    owned_cursor_ =
        std::make_unique<trace::TraceCursor>(*trace, cfg_.num_clients);
    cursor_ = owned_cursor_.get();
  }
  // Lane c replays cursor lane c: fewer cursor lanes would be read out of
  // range, more would leave records buffered for lanes no client drains.
  if (cursor_ != nullptr && cursor_->lanes() != cfg_.num_clients) {
    throw std::invalid_argument(
        "Simulator: TraceCursor has " + std::to_string(cursor_->lanes()) +
        " lanes but SimConfig::num_clients is " +
        std::to_string(cfg_.num_clients));
  }
  // Object ids are dense; pre-size the temperature table so the replay
  // loop never grows it.
  tracker_.reserve_dense(cluster_.object_count());
  window_end_ = cfg_.response_window_us;
  if (!cfg_.faults.empty()) {
    injector_ =
        std::make_unique<FaultInjector>(cfg_.faults, cluster_.num_osds());
  }
  if (cfg_.health.enabled) {
    monitor_ = std::make_unique<HealthMonitor>(cluster_.num_osds());
    hedge_enabled_ = cfg_.health.mitigate;
  }
  rebuild_lanes_.resize(kRebuildLanes);
  servers_.reserve(cluster_.num_osds());
  osd_qd_.reserve(cluster_.num_osds());
  for (std::uint32_t i = 0; i < cluster_.num_osds(); ++i) {
    servers_.emplace_back(kLoadEwmaAlpha);
    // Flat (paper-model) devices are definitionally serial: depth 1 no
    // matter the knob.  Parallel-geometry devices honour the configured
    // depth.
    const bool parallel = cluster_.osd(i).ssd().parallel_timing();
    osd_qd_.push_back(parallel ? cfg_.osd_queue_depth : 1);
  }
  // Client c replays cursor lane c: the records whose client tag folds onto
  // c ("all trace records of multiple users are evenly assigned to each
  // client").  Open-loop mode has no replay lanes: arrivals feed the OSD
  // queues directly.
  clients_.resize(arrivals_ != nullptr ? 0 : cfg_.num_clients);
  if (arrivals_ != nullptr) {
    tenants_.resize(arrivals_->tenant_count());
    for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
      tenants_[t].slo_us = static_cast<SimDuration>(
          arrivals_->spec(t).slo_ms * 1000.0);
    }
  }
  const bool midpoint = cfg_.trigger == MigrationTrigger::kForcedMidpoint;
  if (midpoint || !cfg_.faults.fraction_failures.empty()) {
    // Only the progress hooks need the total; a streaming cursor's
    // counting pre-pass is O(file_count) memory.
    const std::uint64_t total = cursor_ != nullptr
                                    ? cursor_->total_records()
                                    : arrivals_->total_records();
    // Due once issued * 2 >= total, and issued >= f * total (in double).
    if (midpoint) progress_hooks_.push_back({(total + 1) / 2, true, 0});
    for (const FractionFailure& f : cfg_.faults.fraction_failures) {
      const double at = std::ceil(f.fraction * static_cast<double>(total));
      progress_hooks_.push_back(
          {static_cast<std::uint64_t>(at), false, f.osd});
    }
    // Stable, so the midpoint stays ahead of a failure due on its record.
    std::ranges::stable_sort(progress_hooks_, {}, &ProgressHook::at);
    next_hook_at_ = progress_hooks_.front().at;
  }
  lanes_.resize(kMoverLanes);
  if (cfg_.adaptive_sigma && policy_ != nullptr) {
    sigma_estimator_ = std::make_unique<core::SigmaEstimator>(
        cluster_.config().flash.pages_per_block,
        policy_->config().model.sigma());
    wear_snapshots_.resize(cluster_.num_osds());
  }
  setup_telemetry();
}

void Simulator::setup_telemetry() {
  // Attach unconditionally: a null recorder detaches any handles a prior
  // simulation left on a reused cluster or policy.
  cluster_.attach_telemetry(cfg_.recorder);
  if (policy_ != nullptr) policy_->set_recorder(cfg_.recorder);
  tel_ = cfg_.recorder;
  if (tel_ == nullptr) return;
  tel_tracer_ = tel_->tracer();
  tel_sampler_ = tel_->sampler();
  if (auto* metrics = tel_->metrics()) {
    tel_ops_completed_ = metrics->counter("sim.ops_completed");
    tel_requests_retried_ = metrics->counter("sim.requests_retried");
    tel_requests_abandoned_ = metrics->counter("sim.requests_abandoned");
    tel_response_hist_ = metrics->histogram("sim.response_us");
    if (arrivals_ != nullptr) {
      for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
        const std::string& name = arrivals_->tenant_name(t);
        tenants_[t].tel_ops =
            metrics->counter("tenant." + name + ".ops_completed");
        tenants_[t].tel_hist =
            metrics->histogram("tenant." + name + ".response_us");
      }
    }
  }
  if (tel_tracer_ != nullptr) {
    for (std::uint32_t c = 0; c < clients_.size(); ++c) {
      tel_tracer_->name_track(telemetry::track_client(c),
                              "client" + std::to_string(c));
    }
    for (std::uint32_t l = 0; l < lanes_.size(); ++l) {
      tel_tracer_->name_track(telemetry::track_mover(l),
                              "mover" + std::to_string(l));
    }
    for (std::uint32_t l = 0; l < rebuild_lanes_.size(); ++l) {
      tel_tracer_->name_track(telemetry::track_rebuild(l),
                              "rebuild" + std::to_string(l));
    }
    tel_tracer_->name_track(telemetry::track_policy(), "policy");
    tel_tracer_->name_track(telemetry::track_fault(), "fault");
    if (arrivals_ != nullptr) {
      for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
        tel_tracer_->name_track(telemetry::track_tenant(t),
                                "tenant:" + arrivals_->tenant_name(t));
      }
    }
  }
}

Simulator::~Simulator() = default;

double Simulator::current_sigma() const {
  return policy_ ? policy_->config().model.sigma() : 0.28;
}

RunResult Simulator::run() {
  if (ran_) throw std::logic_error("Simulator::run() called twice");
  ran_ = true;

  if (arrivals_ != nullptr) {
    // Open loop: prime the first arrival; everything else flows from the
    // kArrival event chain.
    arrival_pending_ = arrivals_->next(next_arrival_);
    if (arrival_pending_) {
      events_.push(next_arrival_.at, EventKind::kArrival, 0);
    }
  }
  // Kick off every replay lane at t = 0.  An empty lane is discovered by
  // its first fill (which marks it done and decrements).
  active_clients_ = static_cast<std::uint32_t>(clients_.size());
  for (std::uint16_t c = 0; c < clients_.size(); ++c) {
    fill_client_window(c, 0);
  }
  if (clients_active() || mover_active()) {
    events_.push(cfg_.epoch_length_us, EventKind::kEpochTick, 0);
  }
  if (tel_sampler_ != nullptr && (clients_active() || mover_active())) {
    events_.push(tel_sampler_->interval_us(), EventKind::kTelemetrySample, 0);
  }
  if (monitor_ != nullptr && (clients_active() || mover_active())) {
    events_.push(cfg_.health.check_interval_us, EventKind::kHealthCheck, 0);
  }
  schedule_next_fault();

  std::uint64_t events_processed = 0;
  while (!events_.empty()) {
    const Event e = events_.pop();
    ++events_processed;
    // The recorder's clock shadows the DES clock so passive layers (flash,
    // cluster, policies) can timestamp without being handed `now`.
    if (tel_ != nullptr) tel_->set_now(e.time);
    switch (e.kind()) {
      case EventKind::kOsdComplete:
        on_osd_complete(e.payload, e.time);
        break;
      case EventKind::kEpochTick:
        on_epoch_tick(e.time);
        break;
      case EventKind::kMoverResume:
      case EventKind::kRebuildResume:
        on_copy_resume(e.kind() == EventKind::kMoverResume
                           ? SubRequest::Kind::kMover
                           : SubRequest::Kind::kRebuild,
                       e.payload, e.time);
        break;
      case EventKind::kFault:
        on_fault_event(e.time);
        break;
      case EventKind::kRetryResume:
        on_retry_resume(e.payload, e.time);
        break;
      case EventKind::kTelemetrySample:
        on_telemetry_sample(e.time);
        break;
      case EventKind::kHealthCheck:
        on_health_check(e.time);
        break;
      case EventKind::kHedgeDeadline:
        on_hedge_deadline(e.payload, e.time);
        break;
      case EventKind::kArrival:
        on_arrival(e.time);
        break;
    }
  }
  if (clients_active() || mover_active() || rebuild_running_) {
    throw std::logic_error(
        "Simulator: event queue drained with work outstanding (deadlock)");
  }

  // --- assemble results ---
  RunResult out;
  out.trace_name = cursor_ != nullptr ? cursor_->name() : arrivals_->name();
  out.policy_name = policy_ ? policy_->name() : "baseline";
  out.num_osds = cluster_.num_osds();
  out.completed_ops = completed_ops_;
  out.makespan_us = last_completion_;
  out.perf.events_processed = events_processed;
  out.total_objects = cluster_.object_count();

  out.per_osd.resize(servers_.size());
  for (std::uint32_t i = 0; i < servers_.size(); ++i) {
    out.per_osd[i].flash = cluster_.osd(i).flash_stats();
    out.per_osd[i].utilization = cluster_.osd(i).utilization();
    out.per_osd[i].load_ewma_us = servers_[i].load.value();
    out.per_osd[i].requests_served = servers_[i].served;
    out.per_osd[i].busy_us = servers_[i].busy_us;
  }

  out.response_timeline.reserve(window_count_.size());
  for (std::size_t w = 0; w < window_count_.size(); ++w) {
    ResponseWindow rw;
    rw.window_start = static_cast<SimTime>(w) * cfg_.response_window_us;
    rw.completed_ops = window_count_[w];
    rw.mean_response_us =
        window_count_[w] ? window_sum_us_[w] / static_cast<double>(window_count_[w])
                         : 0.0;
    out.response_timeline.push_back(rw);
  }
  out.response_histogram = response_hist_;
  out.mean_response_us = response_stats_.mean();

  migration_.remap_table_size = cluster_.remap().size();
  out.migration = migration_;

  degraded_.degraded_reads = cluster_.degraded_reads();
  degraded_.lost_writes = cluster_.lost_writes();
  degraded_.unavailable = cluster_.unavailable_requests();
  out.degraded = degraded_;

  if (injector_) {
    faults_.transient_errors = injector_->transient_errors();
    faults_.stalls_injected = injector_->stalls_injected();
  }
  out.faults = faults_;

  if (monitor_) {
    health_.enabled = true;
    health_.mitigated = cfg_.health.mitigate;
    health_.checks = monitor_->checks();
    health_.flag_events = monitor_->flag_events();
    health_.clear_events = monitor_->clear_events();
    health_.flagged_osds = monitor_->ever_flagged();
    health_.first_flagged_at = monitor_->first_flagged_at();
    health_.quarantined_at_end = cluster_.quarantined_count();
  }
  out.health = health_;

  if (arrivals_ != nullptr) {
    out.workload.open_loop = true;
    out.workload.offered_ops_per_sec = arrivals_->offered_ops_per_sec();
    out.workload.last_arrival_us = last_arrival_at_;
    out.workload.peak_queue_depth = openloop_peak_queue_;
    out.workload.tenants.reserve(tenants_.size());
    for (std::uint16_t t = 0; t < tenants_.size(); ++t) {
      const TenantState& ts = tenants_[t];
      TenantMetrics tm;
      tm.name = arrivals_->tenant_name(t);
      tm.offered_ops_per_sec = arrivals_->spec(t).rate_ops_per_sec;
      tm.slo_us = ts.slo_us;
      tm.arrivals = ts.arrivals;
      tm.completed_ops = ts.completed;
      tm.slo_violations = ts.slo_violations;
      tm.mean_response_us = ts.stats.mean();
      tm.response_histogram = ts.hist;
      out.workload.arrivals += ts.arrivals;
      out.workload.tenants.push_back(std::move(tm));
    }
  }
  return out;
}

// ---------------------------------------------------------------- clients

void Simulator::release_op(std::uint32_t op_id) { free_ops_.push_back(op_id); }

void Simulator::fill_client_window(std::uint16_t client_id, SimTime now) {
  Client& c = clients_[client_id];
  while (c.in_flight < cfg_.client_queue_depth) {
    if (c.next == c.run.size()) {
      if (c.exhausted) break;
      c.run = cursor_->next_run(client_id);
      c.next = 0;
      if (c.run.empty()) {
        c.exhausted = true;
        break;
      }
    }
    // A copy, not a reference: a streaming span points at the cursor's
    // per-lane slot, which a refill of this lane from inside a progress
    // hook (an op completed by a dead device's drain) overwrites.
    const trace::Record rec = c.run[c.next++];
    issue_op(rec, client_id, 0, now);
  }
  if (c.exhausted && c.in_flight == 0 && !c.done) {
    c.done = true;
    --active_clients_;
  }
}

void Simulator::issue_op(const trace::Record& rec, std::uint16_t client,
                         std::uint16_t tenant, SimTime now) {
  if (++issued_records_ >= next_hook_at_) on_progress(now);
  io_scratch_.clear();
  cluster_.map_request(rec, io_scratch_);
  const bool open_loop = arrivals_ != nullptr;
  if (io_scratch_.empty()) {
    // Metadata-only op (open/close): completes immediately.
    ++completed_ops_;
    record_response(now, 0);
    if (open_loop) account_tenant_completion(tenant, now, 0);
    return;
  }
  const std::uint32_t op_id = take_slot(ops_, free_ops_);
  ops_[op_id] = OpState{client, tenant,
                        static_cast<std::uint32_t>(io_scratch_.size()), now};
  if (open_loop) {
    ++openloop_in_flight_;
  } else {
    ++clients_[client].in_flight;
  }
  for (const auto& io : io_scratch_) {
    tracker_.on_access(io.oid, io.pages, io.is_write);
    enqueue({SubRequest::Kind::kClient, op_id, io, now}, now);
    if (open_loop) {
      const OsdServer& s = servers_[io.osd];
      const std::uint64_t depth = s.queue.size() + s.inflight;
      if (depth > openloop_peak_queue_) openloop_peak_queue_ = depth;
    }
  }
}

void Simulator::on_progress(SimTime now) {
  while (next_hook_ < progress_hooks_.size() &&
         progress_hooks_[next_hook_].at <= issued_records_) {
    const ProgressHook hook = progress_hooks_[next_hook_++];
    next_hook_at_ = next_hook_ < progress_hooks_.size()
                        ? progress_hooks_[next_hook_].at
                        : std::numeric_limits<std::uint64_t>::max();
    if (hook.midpoint) {
      start_migration(now, /*force=*/true);
    } else {
      apply_fail(hook.osd, now);
    }
  }
}

// ------------------------------------------------------- open-loop arrivals

void Simulator::on_arrival(SimTime now) {
  // Inject everything due at `now` (same-microsecond arrivals share one
  // event), then schedule the next stamp.  No queue-depth gate anywhere:
  // if the cluster is saturated the OSD queues simply grow.
  while (arrival_pending_ && next_arrival_.at <= now) {
    ++tenants_[next_arrival_.tenant].arrivals;
    last_arrival_at_ = next_arrival_.at;
    issue_op(next_arrival_.record, 0, next_arrival_.tenant, now);
    arrival_pending_ = arrivals_->next(next_arrival_);
  }
  if (arrival_pending_) {
    events_.push(next_arrival_.at, EventKind::kArrival, 0);
  }
}

void Simulator::account_tenant_completion(std::uint16_t tenant, SimTime now,
                                          SimDuration response_us) {
  TenantState& ts = tenants_[tenant];
  ++ts.completed;
  ts.stats.add(static_cast<double>(response_us));
  ts.hist.add(response_us);
  if (response_us > ts.slo_us) ++ts.slo_violations;
  if (ts.tel_ops != nullptr) {
    ts.tel_ops->add(1);
    ts.tel_hist->observe(static_cast<double>(response_us));
  }
  if (tel_tracer_ != nullptr && response_us > 0) {
    tel_tracer_->complete(telemetry::Category::kRequest, "op",
                          telemetry::track_tenant(tenant),
                          now - response_us, response_us);
  }
}

// ------------------------------------------------------------ OSD service

void Simulator::enqueue(SubRequest req, SimTime now) {
  // Hedge client reads headed at a health-flagged device: if the primary
  // has not landed by the hedge deadline, k-1 peer reads reconstruct the
  // data and the first side to finish completes the op.
  if (hedge_enabled_ && req.hedge == kNoHedge &&
      req.kind == SubRequest::Kind::kClient && !req.io.is_write &&
      monitor_->any_flagged() && monitor_->flagged(req.io.osd)) {
    arm_hedge(req, now);
  }
  const OsdId osd = req.io.osd;
  OsdServer& s = servers_[osd];
  if (can_accept(osd) && s.queue.empty()) {
    // Server with spare capacity, empty queue: dispatch() would pop this
    // request right back off, so skip the queue round-trip.  process_one
    // applies the exact same park/redirect/degraded checks either way.
    process_one(std::move(req), osd, now);
    if (!can_accept(osd) || s.queue.empty()) return;
    // process_one left capacity free but something landed on its queue
    // (reentrant enqueue): fall through and drain, as dispatch() always
    // did when enqueue unconditionally routed through it.
  } else {
    s.queue.push_back(std::move(req));
  }
  dispatch(osd, now);
}

void Simulator::dispatch(OsdId osd, SimTime now) {
  OsdServer& s = servers_[osd];
  while (can_accept(osd) && !s.queue.empty()) {
    SubRequest req = std::move(s.queue.front());
    s.queue.pop_front();
    process_one(std::move(req), osd, now);
  }
}

/// One request at the head of `osd`'s line: parked, redirected, resolved
/// degraded, dropped stale, or put into service in a device slot.  Shared
/// by dispatch() and enqueue()'s idle-server fast path -- the checks must
/// be identical on both routes.
void Simulator::process_one(SubRequest req, OsdId osd, SimTime now) {
  OsdServer& s = servers_[osd];
  if (stale(req)) return;  // lane aborted while the chunk was queued
  // blocked_ is non-empty only while a blocking-mode policy has a move
  // in flight; skip the per-request hash probe the rest of the time.
  if (req.kind == SubRequest::Kind::kClient && !blocked_.empty() &&
      blocked_.count(req.io.oid) != 0) {
    // Foreground access to an object being moved by a blocking policy:
    // park until the move completes (paper SV.D).
    parked_[req.io.oid].push_back(std::move(req));
    return;
  }
  // Mover chunks deliberately address the migration endpoints and
  // rebuild writes the reserved destination, so only client traffic and
  // rebuild peer *reads* follow an object that moved while queued.
  const bool follows_object =
      req.kind == SubRequest::Kind::kClient ||
      (req.kind == SubRequest::Kind::kRebuild && !req.io.is_write);
  if (follows_object) {
    // The object may have migrated while this request sat in the queue
    // (non-blocking CDF moves).  The MDS redirects it to the object's
    // current OSD rather than dropping it on the floor.
    const OsdId current = cluster_.locate(req.io.oid);
    if (current != osd) {
      req.io.osd = current;
      enqueue(std::move(req), now);
      return;
    }
  }
  if (req.kind == SubRequest::Kind::kClient && cluster_.any_failed() &&
      cluster_.osd_failed(osd)) {
    // The device died while this request waited (or a retry/redirect
    // landed on it after the failure): resolve through the degraded
    // path instead of silently dropping it.
    resolve_degraded_client(std::move(req), now);
    return;
  }
  SimDuration service = cfg_.request_overhead_us + execute(req.io, now);
  // Fail-slow degradation: a slowed device multiplies its service time
  // (and may add a seeded intermittent stall).  any_slow() keeps the
  // healthy-cluster fast path to one predictable branch.
  if (injector_ != nullptr && injector_->any_slow()) {
    service = injector_->degrade(osd, service);
  }
  // Into service: the request waits out `service` in a device slot.  A
  // parallel-geometry device's own bus/die/plane timelines already
  // serialised whatever had to be, so `service` includes any internal
  // queueing delay when several requests are in service at once.
  ++s.inflight;
  s.busy_us += service;
  const std::uint32_t slot = take_slot(device_slots_, free_device_slots_);
  device_slots_[slot].req = std::move(req);
  device_slots_[slot].service_start = now;
  events_.push(now + service, EventKind::kOsdComplete, slot);
}

SimDuration Simulator::execute(const cluster::OsdIo& io, SimTime now) {
  // Fast path: the object still sits as one extent at its original home
  // and this I/O targets that device -- resolve the lpn range with a
  // single table load instead of probing the OSD's extent store.  The
  // osd-match guard makes stale entries harmless: migration/rebuild I/O
  // addressed at other replicas simply falls through to the store, which
  // is the ground truth.  Clamping mirrors ObjectStore::map_range.
  const cluster::Cluster::FastExtent& fe = cluster_.fast_extent(io.oid);
  if (fe.pages != 0 && fe.osd == io.osd) {
    return cluster_.fast_extent_io_at(fe, io, now);
  }
  cluster::Osd& osd = cluster_.osd(io.osd);
  return io.is_write ? osd.write_at(now, io.oid, io.first_page, io.pages)
                     : osd.read_at(now, io.oid, io.first_page, io.pages);
}

void Simulator::on_osd_complete(std::uint64_t payload, SimTime now) {
  const auto slot = static_cast<std::uint32_t>(payload);
  SubRequest req = std::move(device_slots_[slot].req);
  const SimTime service_start = device_slots_[slot].service_start;
  free_device_slots_.push_back(slot);
  const OsdId osd = req.io.osd;
  OsdServer& s = servers_[osd];
  assert(s.inflight > 0);
  --s.inflight;
  s.load.add(static_cast<double>(now - req.enqueue_time));
  ++s.served;
  // The health monitor scores whatever the cluster actually produces --
  // it has no access to the injected fault plan.  It observes *service*
  // time (dispatch -> completion), not enqueue -> completion: a fail-slow
  // device inflates every service it performs, while a healthy device
  // merely overloaded with hot data (the load-balancing premise of this
  // whole system) only accrues queue wait.  Only client sub-requests are
  // comparable units -- mover/rebuild chunks are orders of magnitude
  // larger and would flag every migration destination.
  if (monitor_ != nullptr && req.kind == SubRequest::Kind::kClient) {
    monitor_->observe(osd, now - service_start);
  }

  if (stale(req)) {
    // The owning mover/rebuild lane was aborted while this chunk was in
    // service; the device work is sunk cost, the completion is dropped.
    dispatch(osd, now);
    return;
  }

  if (injector_ && injector_->transient_error(osd)) {
    const std::uint32_t attempts = req.attempts + 1;
    if (cfg_.retry.exhausted(attempts)) {
      switch (req.kind) {
        case SubRequest::Kind::kClient:
          // Retries spent: the sub-request is abandoned (counted), but the
          // file operation still completes -- nothing hangs the client.  A
          // hedged read is abandoned only while it owes its op completion.
          if (!settle_hedge(req, Ending::kAbandoned)) break;
          ++faults_.abandoned_requests;
          if (tel_requests_abandoned_ != nullptr) {
            tel_requests_abandoned_->inc();
          }
          complete_client_subrequest(req.owner, now);
          break;
        case SubRequest::Kind::kMover:
          abort_lane_migration(req.owner, now, /*replan=*/false);
          break;
        case SubRequest::Kind::kRebuild:
          abort_rebuild_object(req.owner, now, /*requeue=*/false);
          break;
      }
    } else {
      ++faults_.retried_requests;
      if (tel_requests_retried_ != nullptr) tel_requests_retried_->inc();
      req.attempts = attempts;
      schedule_retry(std::move(req), now + cfg_.retry.backoff_us(attempts));
    }
    dispatch(osd, now);
    return;
  }

  if (req.kind != SubRequest::Kind::kClient) {
    on_copy_chunk_complete(req, now);
  } else if (settle_hedge(req, Ending::kServed)) {
    complete_client_subrequest(req.owner, now);
  }
  dispatch(osd, now);
}

void Simulator::complete_client_subrequest(std::uint32_t op_id, SimTime now) {
  OpState& op = ops_[op_id];
  assert(op.outstanding > 0);
  if (--op.outstanding == 0) {
    ++completed_ops_;
    record_response(now, now - op.start);
    if (arrivals_ != nullptr) {
      // Open-loop op: per-tenant SLO accounting, no replay lane to refill.
      account_tenant_completion(op.tenant, now, now - op.start);
      assert(openloop_in_flight_ > 0);
      --openloop_in_flight_;
      release_op(op_id);
      return;
    }
    if (tel_tracer_ != nullptr) {
      tel_tracer_->complete(telemetry::Category::kRequest, "op",
                            telemetry::track_client(op.client), op.start,
                            now - op.start);
    }
    Client& c = clients_[op.client];
    assert(c.in_flight > 0);
    --c.in_flight;
    const std::uint16_t client_id = op.client;
    release_op(op_id);
    fill_client_window(client_id, now);
  }
}

bool Simulator::stale(const SubRequest& req) {
  // Client sub-requests are never generation-dropped.
  return req.kind != SubRequest::Kind::kClient &&
         req.gen != copy_lane(req.kind, req.owner).gen;
}

// ---------------------------------------------------------------- faults

void Simulator::schedule_next_fault() {
  if (injector_ && injector_->has_pending()) {
    events_.push(injector_->peek().at, EventKind::kFault, 0);
  }
}

void Simulator::on_fault_event(SimTime now) {
  if (!injector_) return;
  while (injector_->has_pending() && injector_->peek().at <= now) {
    const FaultEvent e = injector_->pop();
    switch (e.kind) {
      case FaultEvent::Kind::kFail:
        apply_fail(e.osd, now);
        break;
      case FaultEvent::Kind::kRebuild:
        apply_rebuild(e.osd, now);
        break;
      case FaultEvent::Kind::kSlowdown:
        injector_->apply_slowdown(e);
        ++faults_.slowdown_events;
        if (tel_tracer_ != nullptr) {
          tel_tracer_->instant(telemetry::Category::kFault, "osd_slowdown",
                               telemetry::track_fault(), now, "osd",
                               static_cast<double>(e.osd), "factor",
                               e.factor);
        }
        break;
      case FaultEvent::Kind::kRecover:
        injector_->apply_recover(e.osd);
        ++faults_.recover_events;
        if (tel_tracer_ != nullptr) {
          tel_tracer_->instant(telemetry::Category::kFault, "osd_recover",
                               telemetry::track_fault(), now, "osd",
                               static_cast<double>(e.osd));
        }
        break;
    }
  }
  schedule_next_fault();
}

void Simulator::apply_fail(OsdId id, SimTime now) {
  if (cluster_.osd_failed(id)) return;
  cluster_.fail_osd(id);
  ++faults_.scheduled_failures;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kFault, "osd_fail",
                         telemetry::track_fault(), now, "osd",
                         static_cast<double>(id));
  }
  if (degraded_.failed_osd < 0) {
    degraded_.failed_osd = static_cast<std::int32_t>(id);
    degraded_.failed_at = now;
  }
  // Drain the dying device's queue so nothing is silently dropped: client
  // requests re-resolve through the degraded path, mover/rebuild chunks
  // die with their lane (aborted below, which makes them stale).
  OsdServer& s = servers_[id];
  std::vector<SubRequest> drained;
  drained.reserve(s.queue.size());
  while (!s.queue.empty()) {
    drained.push_back(std::move(s.queue.front()));
    s.queue.pop_front();
  }
  for (SubRequest& req : drained) {
    if (req.kind == SubRequest::Kind::kClient) {
      ++faults_.requeued_on_failure;
      resolve_degraded_client(std::move(req), now);
    }
  }
  // Abort mover lanes whose in-flight move touches the dead device.  A
  // dead destination is re-plannable (the object is still intact at the
  // source); a dead source needs rebuild, not the mover.
  for (std::uint32_t lane_id = 0; lane_id < lanes_.size(); ++lane_id) {
    const CopyLane& lane = lanes_[lane_id];
    if (!lane.active) continue;
    const bool src_died = lane.copy.source == id;
    const bool dst_died = lane.copy.destination == id;
    if (!src_died && !dst_died) continue;
    abort_lane_migration(lane_id, now, /*replan=*/dst_died && !src_died);
  }
  // Abort rebuild streams reading from or writing to the dead device; the
  // victim goes back on the queue so prepare re-decides its fate.
  for (std::uint32_t lane_id = 0; lane_id < rebuild_lanes_.size();
       ++lane_id) {
    const CopyLane& lane = rebuild_lanes_[lane_id];
    if (!lane.active || !rebuild_lane_touches(lane, id)) continue;
    abort_rebuild_object(lane_id, now, /*requeue=*/true);
  }
}

void Simulator::apply_rebuild(OsdId id, SimTime now) {
  if (!cluster_.osd_failed(id)) return;  // rebuild of a healthy device: no-op
  if (rebuild_running_) {
    pending_rebuilds_.push_back(id);  // one target at a time
    return;
  }
  start_rebuild(id, now);
}

void Simulator::resolve_degraded_client(SubRequest req, SimTime now) {
  // A hedged read the other side of its race has completed (or can still
  // complete) is absorbed; one that still owes the op its completion
  // resolves as an unhedged request.
  if (!settle_hedge(req, Ending::kLost)) return;
  req.hedge = kNoHedge;
  req.hedge_peer = false;
  if (req.io.is_write) {
    cluster_.note_lost_write();
    complete_client_subrequest(req.owner, now);
    return;
  }
  // RAID-5 reconstruction: the same object-relative page range of the
  // file's k-1 other objects stands in for the lost chunk (mirrors what
  // map_request does for requests mapped after the failure).
  std::vector<SubRequest> peer_reads;
  const bool reconstructable = cluster_.for_each_sibling(
      req.io.oid, [&](ObjectId peer, OsdId peer_osd) {
        if (cluster_.osd_failed(peer_osd)) return false;  // two members gone
        SubRequest pr = req;
        pr.io.oid = peer;
        pr.io.osd = peer_osd;
        pr.attempts = 0;
        peer_reads.push_back(std::move(pr));
        return true;
      });
  if (!reconstructable) {
    cluster_.note_unavailable_request();
    complete_client_subrequest(req.owner, now);
    return;
  }
  cluster_.note_degraded_read();
  ops_[req.owner].outstanding +=
      static_cast<std::uint32_t>(peer_reads.size()) - 1;
  for (SubRequest& pr : peer_reads) enqueue(std::move(pr), now);
}

void Simulator::schedule_retry(SubRequest req, SimTime when) {
  const std::uint32_t slot = take_slot(retry_slots_, free_retry_slots_);
  retry_slots_[slot] = std::move(req);
  events_.push(when, EventKind::kRetryResume, slot);
}

void Simulator::on_retry_resume(std::uint64_t slot, SimTime now) {
  SubRequest req = std::move(retry_slots_[static_cast<std::size_t>(slot)]);
  free_retry_slots_.push_back(static_cast<std::uint32_t>(slot));
  if (stale(req)) return;  // owning lane was aborted during the backoff
  enqueue(std::move(req), now);
}

// ------------------------------------------------------------- copy lanes

Simulator::CopyLane& Simulator::copy_lane(SubRequest::Kind family,
                                          std::uint32_t lane_id) {
  return family == SubRequest::Kind::kMover ? lanes_[lane_id]
                                            : rebuild_lanes_[lane_id];
}

void Simulator::begin_copy(SubRequest::Kind family, std::uint32_t lane_id,
                           const core::MigrationAction& copy, SimTime now) {
  CopyLane& lane = copy_lane(family, lane_id);
  lane.active = true;
  lane.copy = copy;
  lane.pages_done = 0;
  lane.writing = false;
  lane.start = now;
  issue_copy_chunk(family, lane_id, now);
}

void Simulator::issue_copy_chunk(SubRequest::Kind family,
                                 std::uint32_t lane_id, SimTime now) {
  CopyLane& lane = copy_lane(family, lane_id);
  lane.chunk_pages =
      std::min(kCopyChunkPages, lane.copy.pages - lane.pages_done);
  SubRequest chunk{family, lane_id, {}, now, 0, lane.gen};
  chunk.io.oid = lane.copy.oid;
  chunk.io.first_page = lane.pages_done;
  chunk.io.pages = lane.chunk_pages;
  if (lane.writing) {
    chunk.io.osd = lane.copy.destination;
    chunk.io.is_write = true;
    enqueue(chunk, now);
    return;
  }
  if (family == SubRequest::Kind::kMover) {
    lane.reads_outstanding = 1;
    chunk.io.osd = lane.copy.source;
    enqueue(chunk, now);
    return;
  }
  // Reconstruction reads: the same chunk range of the object's k-1 stripe
  // siblings, in parallel, through the normal OSD queues.
  lane.reads_outstanding = 0;
  cluster_.for_each_sibling(lane.copy.oid, [&](ObjectId sibling, OsdId osd) {
    SubRequest read = chunk;
    read.io.oid = sibling;
    read.io.osd = osd;
    ++lane.reads_outstanding;
    enqueue(read, now);
    return true;
  });
}

void Simulator::on_copy_chunk_complete(const SubRequest& req, SimTime now) {
  const SubRequest::Kind family = req.kind;
  const bool rebuild = family == SubRequest::Kind::kRebuild;
  CopyLane& lane = copy_lane(family, req.owner);
  if (!lane.writing) {
    if (rebuild) faults_.rebuild_peer_pages_read += req.io.pages;
    assert(lane.reads_outstanding > 0);
    if (--lane.reads_outstanding > 0) return;
    // The whole chunk is read.  Bandwidth pacing: it crosses the lane's
    // (network-limited) pipe before it can be written to the destination.
    lane.writing = true;
    const double mbps = rebuild ? kRebuildLaneMbps : cfg_.mover_lane_mbps;
    SimDuration pace = 0;
    if (mbps > 0.0) {
      const double bytes =
          static_cast<double>(lane.chunk_pages) * flash::kPageSize;
      pace = static_cast<SimDuration>(bytes / mbps);  // us
    }
    if (pace > 0) {
      events_.push(now + pace,
                   rebuild ? EventKind::kRebuildResume
                           : EventKind::kMoverResume,
                   lane_payload(req.owner, lane.gen));
    } else {
      issue_copy_chunk(family, req.owner, now);
    }
    return;
  }
  // Destination chunk write landed.
  if (rebuild) faults_.rebuild_pages_written += req.io.pages;
  lane.pages_done += lane.chunk_pages;
  lane.writing = false;
  if (lane.pages_done < lane.copy.pages) {
    issue_copy_chunk(family, req.owner, now);
    return;
  }
  if (rebuild) {
    commit_rebuild(req.owner, now);
  } else {
    commit_move(req.owner, now);
  }
  lane.active = false;
  advance_copy_lane(family, req.owner, now);
}

void Simulator::on_copy_resume(SubRequest::Kind family, std::uint64_t payload,
                               SimTime now) {
  const std::uint32_t lane_id = payload_lane(payload);
  const CopyLane& lane = copy_lane(family, lane_id);
  if (payload_gen(payload) != lane.gen) return;  // aborted since
  if (lane.active) {
    issue_copy_chunk(family, lane_id, now);
  } else {
    advance_copy_lane(family, lane_id, now);
  }
}

void Simulator::advance_copy_lane(SubRequest::Kind family,
                                  std::uint32_t lane_id, SimTime now) {
  if (family == SubRequest::Kind::kMover) {
    advance_lane(lane_id, now);
  } else {
    advance_rebuild_lane(lane_id, now);
  }
}

// -------------------------------------------------------------- migration

void Simulator::start_migration(SimTime now, bool force) {
  if (policy_ == nullptr) return;
  if (mover_active()) return;  // one shuffle at a time
  if (sigma_estimator_ &&
      sigma_estimator_->observations() >=
          sigma_estimator_->min_observations()) {
    policy_->set_model(core::WearModel(
        cluster_.config().flash.pages_per_block,
        sigma_estimator_->estimate()));
  }
  const core::ClusterView view = build_view();
  core::MigrationPlan plan = policy_->plan(view, force);
  if (plan.empty()) return;
  ++migration_.triggers;
  migration_.planned_objects += plan.actions.size();
  if (migration_.started_at == 0) migration_.started_at = now;
  epochs_since_migration_ = 0;

  // Triples are distributed over the mover lanes; a blocking policy blocks
  // each object while its own copy is in flight (blocking the whole plan
  // from shuffle start would stall the hottest objects for the entire
  // shuffle, which at full trace scale can be minutes).
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    lanes_[i % lanes_.size()].actions.push_back(plan.actions[i]);
  }
  for (std::uint32_t lane = 0; lane < lanes_.size(); ++lane) {
    advance_lane(lane, now);
  }
}

void Simulator::advance_lane(std::uint32_t lane_id, SimTime now) {
  CopyLane& lane = lanes_[lane_id];
  while (!lane.active && !lane.actions.empty()) {
    core::MigrationAction action = lane.actions.front();
    lane.actions.pop_front();
    action.source = cluster_.locate(action.oid);  // may have moved since plan
    auto admit = cluster_.admit_migration(action.oid, action.destination);
    if (admit == cluster::Cluster::MigrationAdmit::kDestinationFailed ||
        admit == cluster::Cluster::MigrationAdmit::kDestinationQuarantined) {
      // The planned destination died (or was quarantined by the health
      // monitor) since the plan was drawn; re-target the move onto a
      // healthy group peer instead of dropping it.
      if (auto dst = cluster_.healthy_destination(action.oid)) {
        action.destination = *dst;
        ++faults_.migrations_replanned;
        admit = cluster_.admit_migration(action.oid, action.destination);
      }
    }
    if (admit != cluster::Cluster::MigrationAdmit::kOk) {
      skip_move(action.oid);
      continue;
    }
    if (policy_ != nullptr && policy_->blocks_foreground() &&
        (drain_oids_.empty() || drain_oids_.count(action.oid) == 0)) {
      // Drain moves never block foreground access: the sick device keeps
      // serving (slowly) while its hot objects leave.
      blocked_.insert(action.oid);
    }
    action.pages = cluster_.osd(action.source).object_pages(action.oid);
    begin_copy(SubRequest::Kind::kMover, lane_id, action, now);
  }
  if (!mover_active() && migration_.started_at != 0) {
    migration_.finished_at = now;
  }
}

void Simulator::commit_move(std::uint32_t lane_id, SimTime now) {
  // Object fully copied: switch location, release any parked requests.
  const CopyLane& lane = lanes_[lane_id];
  const ObjectId oid = lane.copy.oid;
  cluster_.complete_migration(oid);
  ++migration_.moved_objects;
  migration_.moved_pages += lane.copy.pages;
  if (!drain_oids_.empty() && drain_oids_.erase(oid) != 0) {
    ++health_.drain_moved;
  }
  if (tel_tracer_ != nullptr) {
    tel_tracer_->complete(telemetry::Category::kMigration, "move",
                          telemetry::track_mover(lane_id), lane.start,
                          now - lane.start, "pages",
                          static_cast<double>(lane.copy.pages));
  }
  release_blocked(oid, now);
}

void Simulator::abort_lane_migration(std::uint32_t lane_id, SimTime now,
                                     bool replan) {
  CopyLane& lane = lanes_[lane_id];
  if (!lane.active) return;
  const ObjectId oid = lane.copy.oid;
  cluster_.abort_migration(oid);  // releases the destination reservation
  ++faults_.migrations_aborted;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kMigration, "move_abort",
                         telemetry::track_mover(lane_id), now, "pages_done",
                         static_cast<double>(lane.pages_done));
  }
  release_blocked(oid, now);
  ++lane.gen;  // in-flight chunks of the old incarnation become stale
  lane.active = false;
  const std::optional<OsdId> dst =
      replan && !cluster_.osd_failed(lane.copy.source)
          ? cluster_.healthy_destination(oid)
          : std::nullopt;
  if (dst) {
    core::MigrationAction retargeted = lane.copy;
    retargeted.destination = *dst;
    lane.actions.push_front(retargeted);
    ++faults_.migrations_replanned;
  } else {
    skip_move(oid);
  }
  // Resume the lane after a backoff; the new generation tags the event.
  events_.push(now + cfg_.retry.backoff_us(1), EventKind::kMoverResume,
               lane_payload(lane_id, lane.gen));
}

void Simulator::skip_move(ObjectId oid) {
  ++migration_.skipped_objects;
  if (!drain_oids_.empty()) drain_oids_.erase(oid);
}

void Simulator::release_blocked(ObjectId oid, SimTime now) {
  blocked_.erase(oid);
  if (auto it = parked_.find(oid); it != parked_.end()) {
    std::vector<SubRequest> waiters = std::move(it->second);
    parked_.erase(it);
    for (SubRequest& w : waiters) {
      w.io.osd = cluster_.locate(oid);  // object's current home
      enqueue(std::move(w), now);
    }
  }
}

bool Simulator::mover_active() const {
  for (const auto& lane : lanes_) {
    if (lane.active || !lane.actions.empty()) return true;
  }
  return false;
}

// --------------------------------------------------------- online rebuild

void Simulator::start_rebuild(OsdId dead, SimTime now) {
  rebuild_target_ = dead;
  rebuild_running_ = true;
  rebuild_queue_.clear();
  for (ObjectId oid : cluster_.failed_objects(dead)) {
    rebuild_queue_.push_back(oid);
  }
  if (faults_.rebuild_started_at == 0) faults_.rebuild_started_at = now;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kFault, "rebuild_start",
                         telemetry::track_fault(), now, "osd",
                         static_cast<double>(dead), "objects",
                         static_cast<double>(rebuild_queue_.size()));
  }
  for (std::uint32_t lane = 0; lane < rebuild_lanes_.size(); ++lane) {
    advance_rebuild_lane(lane, now);
  }
}

void Simulator::advance_rebuild_lane(std::uint32_t lane_id, SimTime now) {
  const CopyLane& lane = rebuild_lanes_[lane_id];
  while (!lane.active && !rebuild_queue_.empty()) {
    const ObjectId oid = rebuild_queue_.front();
    rebuild_queue_.pop_front();
    OsdId dst = 0;
    const auto outcome =
        cluster_.prepare_object_rebuild(rebuild_target_, oid, dst);
    if (outcome == cluster::Cluster::RebuildOutcome::kUnrecoverable) {
      ++faults_.rebuild_unrecoverable;
      continue;
    }
    if (outcome == cluster::Cluster::RebuildOutcome::kUnplaced) {
      ++faults_.rebuild_unplaced;
      continue;
    }
    const std::uint32_t pages =
        cluster_.osd(rebuild_target_).object_pages(oid);
    if (pages == 0) {
      // Zero-length object: nothing to copy, commit the relocation as-is.
      cluster_.commit_object_rebuild(rebuild_target_, oid, dst);
      ++faults_.rebuild_objects;
      continue;
    }
    begin_copy(SubRequest::Kind::kRebuild, lane_id,
               {oid, rebuild_target_, dst, pages}, now);
  }
  maybe_finish_rebuild(now);
}

void Simulator::commit_rebuild(std::uint32_t lane_id, SimTime now) {
  const CopyLane& lane = rebuild_lanes_[lane_id];
  cluster_.commit_object_rebuild(rebuild_target_, lane.copy.oid,
                                 lane.copy.destination);
  ++faults_.rebuild_objects;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->complete(telemetry::Category::kRebuild, "rebuild_object",
                          telemetry::track_rebuild(lane_id), lane.start,
                          now - lane.start, "pages",
                          static_cast<double>(lane.copy.pages));
  }
}

void Simulator::abort_rebuild_object(std::uint32_t lane_id, SimTime now,
                                     bool requeue) {
  CopyLane& lane = rebuild_lanes_[lane_id];
  if (!lane.active) return;
  cluster_.abort_object_rebuild(lane.copy.oid, lane.copy.destination);
  if (requeue) {
    // A device involved in the copy died; prepare re-decides whether the
    // object is still recoverable and where it fits.
    rebuild_queue_.push_back(lane.copy.oid);
  } else {
    ++faults_.rebuild_aborted;  // retries spent: the object stays lost
  }
  ++lane.gen;  // in-flight chunks of the old incarnation become stale
  lane.active = false;
  advance_rebuild_lane(lane_id, now);
}

void Simulator::maybe_finish_rebuild(SimTime now) {
  if (!rebuild_running_ || !rebuild_queue_.empty()) return;
  for (const CopyLane& lane : rebuild_lanes_) {
    if (lane.active) return;
  }
  cluster_.finish_rebuild(rebuild_target_);
  faults_.rebuild_finished_at = now;
  rebuild_running_ = false;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kFault, "rebuild_finish",
                         telemetry::track_fault(), now, "osd",
                         static_cast<double>(rebuild_target_));
  }
  if (!pending_rebuilds_.empty()) {
    const OsdId next = pending_rebuilds_.front();
    pending_rebuilds_.pop_front();
    apply_rebuild(next, now);
  }
}

bool Simulator::rebuild_lane_touches(const CopyLane& lane, OsdId osd) const {
  return lane.copy.destination == osd ||
         !cluster_.for_each_sibling(
             lane.copy.oid, [osd](ObjectId, OsdId at) { return at != osd; });
}

// ---------------------------------------- online health (fail-slow model)

void Simulator::on_health_check(SimTime now) {
  transition_scratch_.clear();
  monitor_->evaluate(now, transition_scratch_);
  for (const HealthMonitor::Transition& t : transition_scratch_) {
    apply_health_transition(t, now);
  }
  // Keep checking while any work remains, like the telemetry sampler.
  if (clients_active() || mover_active() || rebuild_running_) {
    events_.push(now + cfg_.health.check_interval_us, EventKind::kHealthCheck,
                 0);
  }
}

void Simulator::apply_health_transition(const HealthMonitor::Transition& t,
                                        SimTime now) {
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kFault,
                         t.flagged ? "health_flag" : "health_clear",
                         telemetry::track_fault(), now, "osd",
                         static_cast<double>(t.osd));
  }
  if (!cfg_.health.mitigate) return;  // detect-only run
  if (t.flagged) {
    // Cap on simultaneous quarantines: draining a sick device shifts its
    // hot write traffic (and the GC it drags in) onto peers, which can
    // transiently look slow themselves.  Remediating every flag would
    // cascade -- quarantine the worst offenders, hedge around the rest.
    if (cluster_.quarantined_count() >= kMaxQuarantined) return;
    cluster_.set_quarantined(t.osd, true);
    start_drain(t.osd, now);
  } else {
    cluster_.set_quarantined(t.osd, false);
  }
}

void Simulator::start_drain(OsdId osd, SimTime now) {
  if (cluster_.osd_failed(osd)) return;  // a dead device is rebuild's job
  struct Candidate {
    ObjectId oid = 0;
    double temp = 0.0;
    std::uint32_t pages = 0;
  };
  std::vector<Candidate> cands;
  const cluster::Osd& sick = cluster_.osd(osd);
  cands.reserve(sick.store().object_count());
  sick.store().for_each_object([&](ObjectId oid) {
    if (cluster_.migration_in_flight(oid)) return;
    if (!drain_oids_.empty() && drain_oids_.count(oid) != 0) return;
    const std::uint32_t pages = sick.object_pages(oid);
    if (pages == 0) return;  // nothing to move
    cands.push_back({oid, tracker_.total_temperature(oid), pages});
  });
  // Hottest first: the objects whose traffic the sick device most needs
  // shed are the ones worth the mover bandwidth.
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.temp != b.temp) return a.temp > b.temp;
              return a.oid < b.oid;
            });
  std::uint32_t queued = 0;
  for (const Candidate& c : cands) {
    if (queued >= kDrainMaxObjects) break;
    const auto dst = cluster_.healthy_destination(c.oid);
    if (!dst) continue;  // no healthy group peer with room
    lanes_[queued % lanes_.size()].actions.push_back(
        {c.oid, osd, *dst, c.pages});
    drain_oids_.insert(c.oid);
    ++queued;
  }
  if (queued == 0) return;
  ++health_.drain_triggers;
  health_.drain_planned += queued;
  if (migration_.started_at == 0) migration_.started_at = now;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kFault, "drain_start",
                         telemetry::track_fault(), now, "osd",
                         static_cast<double>(osd), "objects",
                         static_cast<double>(queued));
  }
  for (std::uint16_t lane = 0; lane < lanes_.size(); ++lane) {
    advance_lane(lane, now);
  }
}

void Simulator::arm_hedge(SubRequest& req, SimTime now) {
  const std::uint32_t slot = take_slot(hedge_slots_, free_hedge_slots_);
  HedgeSlot& h = hedge_slots_[slot];  // gen survives slot reuse
  h.op_id = req.owner;
  h.io = req.io;
  h.peers_outstanding = 0;
  h.fired = h.resolved = h.primary_done = h.peers_failed = false;
  req.hedge = slot;
  events_.push(now + kHedgeDeadlineUs, EventKind::kHedgeDeadline,
               lane_payload(slot, h.gen));
}

void Simulator::on_hedge_deadline(std::uint64_t payload, SimTime now) {
  const std::uint32_t slot = payload_lane(payload);
  HedgeSlot& h = hedge_slots_[slot];
  if (payload_gen(payload) != h.gen) return;  // stale incarnation
  if (h.resolved || h.primary_done || h.fired) return;
  // The primary is still stuck on the flagged device: fire k-1 RAID-5
  // peer reads of the same stripe range; first side to finish wins.
  std::vector<SubRequest> peer_reads;
  const bool intact = cluster_.for_each_sibling(
      h.io.oid, [&](ObjectId peer, OsdId peer_osd) {
        if (cluster_.osd_failed(peer_osd)) return false;
        SubRequest pr;
        pr.owner = h.op_id;
        pr.io = h.io;
        pr.io.oid = peer;
        pr.io.osd = peer_osd;
        pr.enqueue_time = now;
        pr.hedge = slot;
        pr.hedge_peer = true;
        peer_reads.push_back(std::move(pr));
        return true;
      });
  if (!intact) return;  // nothing to reconstruct from
  h.fired = true;
  h.peers_outstanding = static_cast<std::uint32_t>(peer_reads.size());
  ++health_.hedged_reads;
  if (tel_tracer_ != nullptr) {
    tel_tracer_->instant(telemetry::Category::kFault, "hedge_fire",
                         telemetry::track_fault(), now, "osd",
                         static_cast<double>(h.io.osd));
  }
  for (SubRequest& pr : peer_reads) enqueue(std::move(pr), now);
}

bool Simulator::settle_hedge(const SubRequest& req, Ending end) {
  if (req.hedge == kNoHedge) return true;
  HedgeSlot& h = hedge_slots_[req.hedge];
  bool owes = false;
  if (req.hedge_peer) {
    assert(h.peers_outstanding > 0);
    --h.peers_outstanding;
    if (end != Ending::kServed) {
      h.peers_failed = true;  // reconstruction incomplete: cannot win
    } else if (!h.resolved && !h.peers_failed && h.peers_outstanding == 0) {
      // All k-1 reconstruction reads beat the primary: the hedge wins.
      owes = true;
      ++health_.hedge_wins;
      cluster_.note_degraded_read();
    }
  } else {
    h.primary_done = true;
    owes = !h.resolved;
    // A served primary that won a race its hedge had entered.
    if (owes && end == Ending::kServed && h.fired) ++health_.hedge_redundant;
  }
  if (owes) h.resolved = true;
  if (h.primary_done && h.peers_outstanding == 0) {
    // Both sides are in: recycle the slot.
    ++h.gen;  // stales any still-pending deadline event
    free_hedge_slots_.push_back(req.hedge);
  }
  return owes;
}

// -------------------------------------------------------------- telemetry

void Simulator::on_telemetry_sample(SimTime now) {
  telemetry::SampleRow& row = tel_sampler_->add_row(now);
  for (const auto& lane : lanes_) {
    if (!lane.active) continue;
    row.inflight_migration_bytes +=
        static_cast<std::uint64_t>(lane.copy.pages - lane.pages_done) *
        flash::kPageSize;
  }
  row.osds.resize(servers_.size());
  for (std::uint32_t i = 0; i < servers_.size(); ++i) {
    const OsdServer& s = servers_[i];
    telemetry::OsdSample& o = row.osds[i];
    o.queue_depth = static_cast<std::uint32_t>(s.queue.size()) + s.inflight;
    o.utilization = cluster_.osd(i).utilization();
    o.load_ewma_us = s.load.value();
    o.erases = cluster_.osd(i).flash_stats().erase_count;
  }
  // Keep ticking while any work remains; the tick that finds the cluster
  // idle records the final row and lets the stream end.
  if (clients_active() || mover_active() || rebuild_running_) {
    events_.push(now + tel_sampler_->interval_us(),
                 EventKind::kTelemetrySample, 0);
  }
}

// ------------------------------------------------------------ bookkeeping

void Simulator::on_epoch_tick(SimTime now) {
  tracker_.advance_epoch();
  ++epochs_since_migration_;
  if (sigma_estimator_) {
    // Feed the estimator the per-device wear deltas of this epoch.
    for (OsdId i = 0; i < cluster_.num_osds(); ++i) {
      const auto& stats = cluster_.osd(i).flash_stats();
      WearSnapshot& snap = wear_snapshots_[i];
      const auto d_erases = stats.erase_count - snap.erases;
      const auto d_writes = stats.host_page_writes - snap.writes;
      sigma_estimator_->observe(static_cast<double>(d_writes),
                                cluster_.osd(i).utilization(),
                                static_cast<double>(d_erases));
      snap = {stats.erase_count, stats.host_page_writes};
    }
  }
  if (cfg_.trigger == MigrationTrigger::kMonitor && clients_active() &&
      !mover_active() &&
      epochs_since_migration_ >= cfg_.monitor_cooldown_epochs) {
    start_migration(now, /*force=*/false);
  }
  if (clients_active() || mover_active()) {
    events_.push(now + cfg_.epoch_length_us, EventKind::kEpochTick, 0);
  }
}

void Simulator::record_response(SimTime now, SimDuration response_us) {
  // Makespan = last *file operation* completion: the replay is over when
  // the workload is served, not when the mover drains its backlog.
  last_completion_ = std::max(last_completion_, now);
  response_stats_.add(static_cast<double>(response_us));
  response_hist_.add(response_us);
  if (tel_ops_completed_ != nullptr) {
    tel_ops_completed_->inc();
    tel_response_hist_->observe(static_cast<std::uint64_t>(response_us));
  }
  // Completions arrive in event-time order, so the window index advances
  // incrementally -- no per-op division.
  while (now >= window_end_) {
    ++cur_window_;
    window_end_ += cfg_.response_window_us;
  }
  assert(now + cfg_.response_window_us >= window_end_);
  const std::size_t window = cur_window_;
  if (window >= window_count_.size()) {
    window_count_.resize(window + 1, 0);
    window_sum_us_.resize(window + 1, 0.0);
  }
  ++window_count_[window];
  window_sum_us_[window] += static_cast<double>(response_us);
}

core::ClusterView Simulator::build_view() const {
  core::ClusterView view;
  view.placement = &cluster_.placement();
  view.devices.reserve(cluster_.num_osds());
  view.objects.resize(cluster_.num_osds());
  for (OsdId i = 0; i < cluster_.num_osds(); ++i) {
    const cluster::Osd& osd = cluster_.osd(i);
    core::DeviceView d;
    d.id = i;
    d.write_pages = osd.flash_stats().host_page_writes;
    d.utilization = osd.utilization();
    d.load_ewma_us = servers_[i].load.value();
    d.capacity_pages = osd.capacity_pages();
    d.free_pages = osd.free_pages();
    d.failed = osd.failed();
    d.quarantined = cluster_.osd_quarantined(i);
    view.devices.push_back(d);

    auto& objs = view.objects[i];
    objs.reserve(osd.store().object_count());
    osd.store().for_each_object([&](ObjectId oid) {
      if (cluster_.migration_in_flight(oid)) return;  // skip mid-move copies
      core::ObjectView o;
      o.oid = oid;
      o.pages = osd.object_pages(oid);
      o.write_temp = tracker_.write_temperature(oid);
      o.total_temp = tracker_.total_temperature(oid);
      o.remapped = cluster_.remap().contains(oid);
      objs.push_back(o);
    });
    // Deterministic order regardless of hash-map iteration.
    std::sort(objs.begin(), objs.end(),
              [](const core::ObjectView& a, const core::ObjectView& b) {
                return a.oid < b.oid;
              });
  }
  return view;
}

}  // namespace edm::sim
