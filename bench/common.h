// Shared plumbing for the two bench binaries that print tables
// (experiments, micro_sweep): the standard flags, sweep options, table
// output and the one-cell constructor their grids are built from.
// Execution goes through the deterministic sweep runner (src/runner):
// grid cells run on --jobs workers and aggregate in declared grid order,
// so a bench's output is byte-identical at any job count.  emit() prints
// a table and, when BenchArgs::emitted is set, keeps it for a JSON record
// of the run (experiments --out).
//
// Both accept:
//   --scale=<f>            linear trace scale (default 0.1; 1.0 = paper-size)
//   --csv                  emit CSV instead of the aligned table
//   --jobs=<n>             sweep workers (0 = one per hardware thread,
//                          1 = serial; default 0)
//   --no-progress          suppress the stderr progress/ETA line
//   --trace-out=<path>     write a Chrome trace-event JSON per run
//   --timeseries-out=<path> write a DES-clock time-series CSV per run
//   --sample-interval=<s>  sampling interval in simulated seconds (default 1)
//
// With several grid cells, telemetry output paths get "-<cell index>"
// appended before the extension so every cell lands in its own file.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "sim/experiment.h"
#include "util/flags.h"
#include "util/table.h"

namespace edm::bench {

/// A table as emit() printed it, kept for a JSON record of the run.
struct EmittedTable {
  std::string title;
  util::Table table;
  std::string note;
};

struct BenchArgs {
  double scale = 0.1;
  bool csv = false;

  // Sweep execution (runner::SweepOptions).
  std::uint32_t jobs = 0;  // 0 = one worker per hardware thread
  bool no_progress = false;

  // Telemetry outputs ("" = off).
  std::string trace_out;
  std::string timeseries_out;
  double sample_interval_s = 1.0;  // simulated seconds between samples

  // Where emit() keeps each table it prints (null = nowhere).
  std::vector<EmittedTable>* emitted = nullptr;
};

/// Registers the standard bench flags; each bench adds its own before
/// calling parse().
inline util::FlagParser make_flag_parser(BenchArgs& args) {
  util::FlagParser parser;
  parser.add_double("--scale", &args.scale,
                    "linear trace scale (1.0 = paper-size counts)");
  parser.add_bool("--csv", &args.csv, "emit CSV instead of a table");
  parser.add_uint32("--jobs", &args.jobs,
                    "sweep workers (0 = hardware threads, 1 = serial)");
  parser.add_bool("--no-progress", &args.no_progress,
                  "suppress the stderr progress/ETA line");
  parser.add_string("--trace-out", &args.trace_out,
                    "write Chrome trace-event JSON (Perfetto-loadable)");
  parser.add_string("--timeseries-out", &args.timeseries_out,
                    "write per-OSD time-series CSV");
  parser.add_double("--sample-interval", &args.sample_interval_s,
                    "time-series sampling interval in simulated seconds");
  return parser;
}

/// The telemetry sink settings a bench's flags selected.
inline runner::TelemetrySinks sinks_from(const BenchArgs& args) {
  runner::TelemetrySinks sinks;
  sinks.trace_out = args.trace_out;
  sinks.timeseries_out = args.timeseries_out;
  sinks.sample_interval_s = args.sample_interval_s;
  return sinks;
}

/// The sweep options a bench's flags selected; `label` prefixes the
/// stderr progress line (use the bench or experiment name).
inline runner::SweepOptions sweep_options(const BenchArgs& args,
                                          const std::string& label) {
  runner::SweepOptions opt;
  opt.jobs = args.jobs;
  opt.label = label;
  opt.progress = args.no_progress ? nullptr : &std::cerr;
  opt.sinks = sinks_from(args);
  return opt;
}

/// Maps the telemetry flags onto one cell's TelemetryConfig.
inline void apply_telemetry(sim::ExperimentConfig& cfg,
                            const BenchArgs& args) {
  runner::apply_telemetry(cfg, sinks_from(args));
}

inline void write_telemetry_outputs(const std::vector<sim::RunResult>& results,
                                    const BenchArgs& args) {
  runner::write_sweep_outputs(results, sinks_from(args));
}

/// Standard bench runner: executes the grid on the sweep runner (telemetry
/// sinks applied per cell, per-run output files written in grid order) and
/// returns the results in declared grid order.
inline std::vector<sim::RunResult> run_cells(
    std::vector<sim::ExperimentConfig> cells, const BenchArgs& args,
    const std::string& label = "sweep") {
  return runner::run_sweep(std::move(cells), sweep_options(args, label));
}

inline void emit(const util::Table& table, const BenchArgs& args,
                 const std::string& title, const std::string& shape_note) {
  if (args.emitted) args.emitted->push_back({title, table, shape_note});
  if (args.csv) {
    table.write_csv(std::cout);
    return;
  }
  std::cout << title << " (scale=" << args.scale << ")\n";
  table.print(std::cout);
  if (!shape_note.empty()) std::cout << "\n" << shape_note << "\n";
}

inline sim::ExperimentConfig cell(const std::string& trace,
                                  core::PolicyKind policy,
                                  std::uint32_t osds, double scale) {
  sim::ExperimentConfig cfg;
  cfg.trace_name = trace;
  cfg.policy = policy;
  cfg.num_osds = osds;
  cfg.scale = scale;
  return cfg;
}

}  // namespace edm::bench
