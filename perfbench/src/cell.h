// One benchmark cell: the body of sim::run_experiment, performed one public
// call at a time so every set-up step and the replay are timed on their own.
//
// The steps are those of the library's cell body: trace source, Cluster
// constructor, populate, steady_state_warmup, reset_flash_stats, Simulator
// constructor, run.  A cell built here replays exactly what
// sim::run_experiment (materialised and open-loop workloads) or
// sim::run_experiment_streaming (streaming workloads) replays for the same
// config; fingerprint() is how the benchmark checks that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Host seconds of each cell step.
struct StepTimes {
  double source_s = 0.0;    // trace generation / cursor / open-loop source
  double build_s = 0.0;     // Cluster constructor
  double populate_s = 0.0;  // Cluster::populate
  double warmup_s = 0.0;    // Cluster::steady_state_warmup (GC warm-up)
  double ctor_s = 0.0;      // Simulator constructor
  double setup_s = 0.0;     // cell start to run(): all of the above, plus
                            // Cluster::reset_flash_stats
  double replay_s = 0.0;    // Simulator::run()
};

struct CellOptions {
  /// Replay through a TimedPolicy wrapped around the workload's policy;
  /// after the replay, time build_view / SigmaEstimator::estimate and read
  /// the fast-extent table.
  bool traced = false;
  /// False runs the workload with its telemetry switched off (the
  /// telemetry-overhead probe); true keeps the workload's own setting.
  bool telemetry = true;
  /// When set, every step is recorded as a span.
  SpanLog* spans = nullptr;
  /// Records the source holds, when an earlier cell of the same input
  /// counted them; 0 = count after the replay (a second pass over a lazy
  /// source, ~10% of a streaming cell).
  std::uint64_t known_records = 0;
};

struct CellRun {
  edm::sim::RunResult result;
  StepTimes times;
  /// File operations the source offered: trace records (closed loop) or
  /// arrivals (open loop).  Counted after the replay, outside its timing,
  /// unless CellOptions::known_records gives it.
  std::uint64_t attempted = 0;
  // --- traced cells only ---
  std::vector<double> plan_ms;  // host milliseconds of each plan() call
  double view_ms = 0.0;         // one Simulator::build_view()
  double sigma_fit_ms = 0.0;    // every refit's estimate(), re-timed
  double fast_path_frac = 0.0; // sim: objects still served by fast_extent
  /// Digest of the run's telemetry metrics and time series ("" = none).
  std::string telemetry_digest;
};

/// Runs one cell.  Throws whatever the library throws.
CellRun run_cell(const Workload& workload, const CellOptions& options = {});

/// Digest of the modelled outputs: events, completed ops, makespan,
/// per-OSD erases and host writes, moved objects, p99 response.  Holds no
/// host-clock value, so equal configs and seeds give equal fingerprints.
std::string fingerprint(const edm::sim::RunResult& result);

/// Conservation checks on one run; returns one line per failed check.
std::vector<std::string> check_outputs(const Workload& workload,
                                       const CellRun& run);

/// Digest of a run's telemetry metrics registry and time series.
std::string telemetry_digest(const edm::telemetry::Recorder& recorder);

/// Median of `values`; 0 when empty.
double median(std::vector<double> values);


}  // namespace perfbench
