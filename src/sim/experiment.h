// One-call experiment execution: workload profile in, RunResult out.
//
// This is the top of the simulation API: run_experiment() runs one cell,
// and runner::run_sweep (src/runner) runs a grid of them on parallel
// workers.  A cell fully describes one bar/point of a paper figure:
// (trace, policy, cluster size).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/policy.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "trace/profile.h"

namespace edm::sim {

struct ExperimentConfig {
  /// Workload profile name ("home02" ... "lair62b", "random").
  std::string trace_name = "home02";

  /// Linear scale on file/op counts.  1.0 = the paper's Table I counts;
  /// benches default to 0.1 for minutes-not-hours grids -- also the
  /// calibrated operating point (see EXPERIMENTS.md "Scale sensitivity").
  double scale = 0.1;

  /// XORed into the workload profile's seed: run the same cell over
  /// several seeds to separate conclusions from generator luck.
  std::uint64_t trace_seed_offset = 0;

  std::uint32_t num_osds = 16;
  std::uint32_t num_groups = 4;       // m (paper: 4)
  std::uint32_t objects_per_file = 4; // k (paper: 4)

  /// Weighted grouping (paper SIII.D); overrides num_osds/num_groups when
  /// non-empty.  See ClusterConfig::group_sizes.
  std::vector<std::uint32_t> group_sizes;

  /// Load-generating clients; paper: half the OSD count.  0 = auto.
  std::uint16_t num_clients = 0;

  core::PolicyKind policy = core::PolicyKind::kNone;
  core::PolicyConfig policy_config;

  SimConfig sim;

  /// Epoch/window lengths scale with the trace by default so that reduced
  /// replays still see multiple epochs; set to false to use sim.* verbatim.
  bool scale_time_windows = true;

  /// Flash geometry template (page size, block size, latencies).
  flash::FlashConfig flash;

  /// Max post-population utilization (paper: ~70%).
  double target_max_utilization = 0.76;

  /// Telemetry switches (all off by default).  When any are on, run_cell
  /// creates one Recorder per cell -- thread-confined, so grid cells on a
  /// pool never share state -- and hands it back on RunResult::telemetry.
  telemetry::TelemetryConfig telemetry;

  /// Open-loop multi-tenant injection (src/workload).  When enabled()
  /// (one or more tenants), trace_name/num_clients replay is replaced by
  /// arrival-stamped injection from an OpenLoopSource; tenants whose
  /// scale is 0 inherit `scale` above.  Empty = closed-loop (default).
  workload::OpenLoopConfig open_loop;
};

/// Runs one cell: generates the trace, builds + populates the cluster,
/// replays under the configured policy, returns metrics.
RunResult run_experiment(const ExperimentConfig& config);

/// Variant reusing a pre-generated trace (grid cells share workloads).
RunResult run_experiment(const ExperimentConfig& config,
                         const trace::Trace& trace);

/// Streaming variant: identical results to run_experiment(config), but the
/// trace is never materialised -- replay lanes pull records lazily from a
/// TraceCursor, so peak memory is O(file_count + clients x lookahead)
/// instead of O(record_count).  This is the path for high --scale runs
/// (bench/perf_scale) where the materialised trace dominates peak RSS.
RunResult run_experiment_streaming(const ExperimentConfig& config);

/// Applies derived defaults (clients, scaled windows, policy Np) without
/// running; exposed so tests can assert the derivation rules.
ExperimentConfig finalize(const ExperimentConfig& config);

}  // namespace edm::sim
