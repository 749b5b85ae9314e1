// Per-run measurement output: everything the paper's figures consume.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flash/stats.h"
#include "telemetry/telemetry.h"
#include "util/histogram.h"
#include "util/stats.h"
#include "util/types.h"

namespace edm::sim {

/// One point of the Fig. 7 response-time timeline: ops completed in
/// [window_start, window_end) and their mean response time.
struct ResponseWindow {
  SimTime window_start = 0;
  std::uint64_t completed_ops = 0;
  double mean_response_us = 0.0;
};

struct OsdMetrics {
  flash::FlashStats flash;        // erase count, page writes, GC moves...
  double utilization = 0.0;       // final disk utilization
  double load_ewma_us = 0.0;      // final load factor
  std::uint64_t requests_served = 0;
  SimDuration busy_us = 0;        // total service time on this OSD
};

struct MigrationMetrics {
  std::uint64_t planned_objects = 0;
  std::uint64_t moved_objects = 0;   // completed (Fig. 8 numerator)
  std::uint64_t skipped_objects = 0; // destination full / raced
  std::uint64_t moved_pages = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::size_t remap_table_size = 0;  // final (Fig. 8 overhead proxy)
  std::uint64_t triggers = 0;        // times a non-empty plan was produced
};

/// Degraded-mode accounting when a failure was injected.
struct DegradedMetrics {
  std::int32_t failed_osd = -1;       // -1 = no failure injected
  SimTime failed_at = 0;
  std::uint64_t degraded_reads = 0;   // reads served via k-1 peer reads
  std::uint64_t lost_writes = 0;      // writes to the dead device
  std::uint64_t unavailable = 0;      // requests no redundancy could serve
};

/// Fault-injection subsystem accounting: scheduled failures, transient
/// errors + retry/backoff, failure-aware migration, online rebuild.
struct FaultMetrics {
  std::uint64_t scheduled_failures = 0;  // FaultPlan kFail events applied
  std::uint64_t slowdown_events = 0;     // FaultPlan kSlowdown events applied
  std::uint64_t recover_events = 0;      // FaultPlan kRecover events applied
  std::uint64_t stalls_injected = 0;     // intermittent stalls added
  std::uint64_t transient_errors = 0;    // injected per-request errors
  std::uint64_t retried_requests = 0;    // sub-requests re-driven (backoff)
  std::uint64_t abandoned_requests = 0;  // client retries exhausted
  std::uint64_t requeued_on_failure = 0; // drained from a dying OSD queue

  // Failure-aware data mover.
  std::uint64_t migrations_aborted = 0;    // endpoint died / retries spent
  std::uint64_t migrations_replanned = 0;  // re-targeted to a healthy peer

  // Online rebuild (chunked reconstruction through the OSD queues).
  std::uint64_t rebuild_objects = 0;        // reconstructed + committed
  std::uint64_t rebuild_unrecoverable = 0;  // a needed peer also failed
  std::uint64_t rebuild_unplaced = 0;       // no healthy peer had space
  std::uint64_t rebuild_aborted = 0;        // abandoned mid-copy
  std::uint64_t rebuild_pages_written = 0;
  std::uint64_t rebuild_peer_pages_read = 0;
  SimTime rebuild_started_at = 0;
  SimTime rebuild_finished_at = 0;
};

/// Online health-monitor accounting (fail-slow detection + mitigation).
/// Always serialised (schema edm-run-result/4 has an always-present
/// `health` section); enabled = false leaves every counter at zero.
struct HealthMetrics {
  bool enabled = false;    // monitor scored latencies this run
  bool mitigated = false;  // hedged reads + quarantine-and-drain active
  std::uint64_t checks = 0;        // periodic evaluations performed
  std::uint64_t flag_events = 0;   // healthy -> flagged transitions
  std::uint64_t clear_events = 0;  // flagged -> healthy transitions
  std::vector<std::uint32_t> flagged_osds;  // ever flagged, ascending
  SimTime first_flagged_at = 0;
  std::uint64_t quarantined_at_end = 0;  // still quarantined when run ended

  // Hedged reads (client reads stuck on a flagged OSD past the deadline).
  std::uint64_t hedged_reads = 0;     // hedges that fired peer reads
  std::uint64_t hedge_wins = 0;       // reconstruction beat the primary
  std::uint64_t hedge_redundant = 0;  // primary beat the reconstruction

  // Quarantine-and-drain migrations.
  std::uint64_t drain_triggers = 0;  // quarantines that started a drain
  std::uint64_t drain_planned = 0;   // objects queued for draining
  std::uint64_t drain_moved = 0;     // drain objects fully moved
};

/// Per-tenant open-loop accounting (SLO-centric: the question is not "how
/// fast did the cluster go" but "did each tenant's offered load meet its
/// latency target").
struct TenantMetrics {
  std::string name;                 // profile, "#<i>"-suffixed on repeats
  double offered_ops_per_sec = 0.0;
  SimDuration slo_us = 0;
  std::uint64_t arrivals = 0;       // records injected
  std::uint64_t completed_ops = 0;
  std::uint64_t slo_violations = 0; // completions with response > slo_us
  double mean_response_us = 0.0;
  util::LogHistogram response_histogram;  // p50/p99/p999 come from here
  double slo_violation_fraction() const {
    return completed_ops ? static_cast<double>(slo_violations) /
                               static_cast<double>(completed_ops)
                         : 0.0;
  }
};

/// Open-loop workload accounting.  Always serialised (schema
/// edm-run-result/4 has an always-present `workload` section); a
/// closed-loop run leaves open_loop = false and tenants empty.
struct WorkloadMetrics {
  bool open_loop = false;
  double offered_ops_per_sec = 0.0;  // sum of tenant rates
  std::uint64_t arrivals = 0;        // total records injected
  SimTime last_arrival_us = 0;
  std::uint64_t peak_queue_depth = 0;  // max per-OSD backlog observed
  std::vector<TenantMetrics> tenants;
};

/// Event-loop and wall-clock measurements for the benchmarks (perfbench/,
/// bench/perf_scale, docs/PERFORMANCE.md).  events_processed
/// is deterministic (it counts DES events popped); the wall-clock fields
/// are not, so none of this is ever serialised by write_json /
/// write_sweep_json -- report bytes stay machine-independent.
struct PerfMetrics {
  std::uint64_t events_processed = 0;
  double setup_wall_s = 0.0;   // cluster build + populate + GC warm-up
  double replay_wall_s = 0.0;  // Simulator::run() wall time
};

struct RunResult {
  std::string trace_name;
  std::string policy_name;
  std::uint32_t num_osds = 0;

  // --- Fig. 5: aggregate throughput ---
  std::uint64_t completed_ops = 0;  // file operations (open/close/read/write)
  SimTime makespan_us = 0;
  double throughput_ops_per_sec() const {
    return makespan_us
               ? static_cast<double>(completed_ops) * 1e6 /
                     static_cast<double>(makespan_us)
               : 0.0;
  }

  // --- Fig. 6 / Fig. 1: wear ---
  std::vector<OsdMetrics> per_osd;
  std::uint64_t aggregate_erases() const;
  std::uint64_t aggregate_host_writes() const;
  double erase_rsd() const;  // wear-variance measure across OSDs

  // --- Fig. 7: response-time timeline ---
  std::vector<ResponseWindow> response_timeline;
  util::LogHistogram response_histogram;  // all-ops latency distribution
  double mean_response_us = 0.0;

  // --- Fig. 8 / migration cost ---
  MigrationMetrics migration;

  // --- failure injection (SIII.D experiments) ---
  DegradedMetrics degraded;
  FaultMetrics faults;

  // --- fail-slow detection & mitigation (paper-extension) ---
  HealthMetrics health;

  // --- open-loop multi-tenant workload (paper-extension) ---
  WorkloadMetrics workload;

  // --- benchmark-harness measurements (never serialised) ---
  PerfMetrics perf;

  // --- telemetry (null when the run had none enabled) ---
  // Shared so cheap RunResult copies in the bench/report layers don't
  // duplicate a multi-megabyte event stream.
  std::shared_ptr<telemetry::Recorder> telemetry;

  std::uint64_t total_objects = 0;
  double moved_object_fraction() const {
    return total_objects ? static_cast<double>(migration.moved_objects) /
                               static_cast<double>(total_objects)
                         : 0.0;
  }
};

}  // namespace edm::sim
