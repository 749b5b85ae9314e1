// The benchmark's two run modes over one workload.
//
//   plain   replays the run's first inputs once untimed, then cycles timed
//           untraced cells through the input set for its time budget,
//           scales each to the reference host speed (hostspeed.h), and
//           reports the end-to-end metrics.
//   traced  checks the cell against sim::run_experiment, alternates
//           untraced and traced cells, runs the layer-driven pass, and
//           reports the per-layer metrics.
//
// Every cell is checked (check_outputs, and its fingerprint and telemetry
// digest against the first cell of the same input); a cell that throws or
// fails a check counts all of its ops as failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  /// Host-time budget: timed cells (plain) or rounds (traced) start while
  /// the next one is expected to end within it, after the untimed pass and
  /// one timed pass over the input set (plain) or one round (traced).
  double seconds = 10.0;
};

struct Report {
  std::string workload;
  std::string mode;
  std::uint64_t seed = 0;         // the run's seed (input_set())
  double scale = 0.0;
  std::size_t inputs = 0;         // generated inputs replayed
  std::size_t cells = 0;          // cells run
  std::uint64_t attempted = 0;    // ops offered over every cell
  std::uint64_t failed = 0;       // ops of cells that threw or failed a check
  std::vector<std::string> failures;
  // Per input, comma-separated, in input order (deterministic).
  std::string fingerprint;        // of the modelled outputs
  std::string telemetry_digest;   // "" when the workload has no telemetry
  std::vector<Metric> metrics;
  /// Host facts beside the metrics, never checked against a bound: the
  /// measured host speed and the unscaled timings (plain runs).
  std::vector<Metric> diagnostics;

  bool correct() const { return failures.empty(); }
};

/// One untimed pass over the first four of `inputs` (input_set()), then
/// timed cells cycling through all of them: replay_ops_per_s and setup_s
/// (medians over timed cells, each scaled to the reference host speed),
/// peak_rss_mb (process high-water mark after the untimed pass), ok_frac.
Report run_plain(const std::vector<Workload>& inputs,
                 const RunOptions& options);

/// Traced run of one input: every per-layer metric (README.md "Per-layer
/// metrics").  Spans go to `spans` when it is set.
Report run_traced(const Workload& workload, const RunOptions& options,
                  SpanLog* spans);

/// One-line JSON of the report; `provenance` is an already-rendered JSON
/// object (host facts, never part of the fingerprint).
std::string to_json(const Report& report, const std::string& provenance);

}  // namespace perfbench
