#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "cell.h"
#include "hostspeed.h"
#include "layers.h"
#include "sim/experiment.h"
#include "util/provenance.h"
#include "util/rss.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Hard cap on timed cells (plain) or rounds (traced) per run, whatever the
// time budget.
constexpr std::size_t kMaxCells = 1024;

// Inputs replayed untimed before a plain run's timed cells.  The memory
// high-water mark is read after them: over ten seeds its spread
// (IQR/median) was 0.005-0.028; read after all sixteen inputs it was
// bimodal, at 0.039 on read-midpoint.
constexpr std::size_t kWarmupInputs = 4;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

Report start_report(const Workload& workload, const char* mode) {
  Report report;
  report.workload = workload.name;
  report.mode = mode;
  report.scale = workload.config.scale;
  return report;
}

void fail(Report& report, std::uint64_t ops, const std::string& why) {
  report.failed += ops;
  report.failures.push_back(report.workload + ": " + why);
}

/// What every cell replaying one input must reproduce: the first such
/// cell's fingerprint and telemetry digest.
struct Expected {
  std::string fingerprint;
  std::string telemetry;
};

/// Compares one value with its expected slot (filled by the first cell);
/// returns false (and records why) on a mismatch.
bool matches(Report& report, std::string& expected, const std::string& got,
             const char* what, std::uint64_t ops) {
  if (expected.empty()) expected = got;
  if (got == expected) return true;
  fail(report, ops,
       std::string(what) + " " + got + " differs from the input's " + expected);
  return false;
}

bool matches(Report& report, Expected& expected, const std::string& fp,
             const std::string& telemetry, std::uint64_t ops) {
  const bool fp_ok = matches(report, expected.fingerprint, fp, "fingerprint", ops);
  const bool tel_ok =
      telemetry.empty() ||
      matches(report, expected.telemetry, telemetry, "telemetry digest", ops);
  return fp_ok && tel_ok;
}

/// Runs one cell and checks it.  Returns the cell only when it ran and
/// passed every check; otherwise all of its ops count as failed.
std::optional<CellRun> checked_cell(const Workload& workload,
                                    const CellOptions& options,
                                    Report& report, Expected& expected) {
  // A cell that throws never reports its op count; charge it the mean of
  // the cells before it (every cell replays an input of the same size).
  const std::uint64_t ops_hint = std::max<std::uint64_t>(
      1, report.cells ? report.attempted / report.cells : 1);
  ++report.cells;
  try {
    CellRun run = run_cell(workload, options);
    report.attempted += run.attempted;
    const std::vector<std::string> failures = check_outputs(workload, run);
    for (const std::string& f : failures) report.failures.push_back(f);
    if (!failures.empty()) {
      report.failed += run.attempted;
      return std::nullopt;
    }
    if (!matches(report, expected, fingerprint(run.result),
                 run.telemetry_digest, run.attempted)) {
      return std::nullopt;
    }
    return run;
  } catch (const std::exception& e) {
    report.attempted += ops_hint;
    fail(report, ops_hint, std::string("cell threw: ") + e.what());
    return std::nullopt;
  }
}

/// Whether another cell of `typical_s` host seconds still fits the budget.
bool another_fits(const RunOptions& options, Clock::time_point start,
                  std::size_t done, std::size_t min, double typical_s) {
  if (done < min) return true;
  if (done >= kMaxCells) return false;
  return seconds_since(start) + typical_s <= options.seconds;
}

void add(Report& report, const char* name, double value, const char* unit) {
  report.metrics.push_back({name, value, unit});
}

}  // namespace

Report run_plain(const std::vector<Workload>& inputs,
                 const RunOptions& options) {
  Report report = start_report(inputs.front(), "plain");
  const std::size_t k = inputs.size();
  report.inputs = k;
  std::vector<Expected> expected(k);
  std::vector<std::uint64_t> records(k, 0);
  const auto start = Clock::now();

  // Warm-up: one untimed pass over the first few inputs grows the heap and
  // fixes the memory high-water mark.  Later cells only re-run the same
  // allocations, but the order in which they meet freed memory varies with
  // how many fit the budget; the mark after this pass does not, and the
  // probe's ring is not in it yet.
  for (std::size_t j = 0; j < std::min(k, kWarmupInputs); ++j) {
    if (auto run = checked_cell(inputs[j], {}, report, expected[j])) {
      records[j] = run->attempted;
    }
  }
  const std::size_t peak_rss = edm::util::peak_rss_bytes();

  // Timed cells, each scaled to the reference host speed by the probes
  // taken just before and just after it (hostspeed.h).
  HostSpeedProbe probe;
  double probe_before = probe.measure();
  std::vector<double> ops_per_s;
  std::vector<double> setup_s;
  std::vector<double> raw_ops_per_s;
  std::vector<double> raw_setup_s;
  std::vector<double> speeds;
  std::vector<double> cell_s;
  std::size_t timed = 0;
  while (another_fits(options, start, timed, k, median(cell_s))) {
    const std::size_t j = timed++ % k;
    CellOptions options_j;
    options_j.known_records = records[j];
    const auto cell_start = Clock::now();
    const std::optional<CellRun> run =
        checked_cell(inputs[j], options_j, report, expected[j]);
    const double probe_after = probe.measure();
    cell_s.push_back(seconds_since(cell_start));
    const double speed = host_speed(0.5 * (probe_before + probe_after));
    probe_before = probe_after;
    if (!run) continue;
    records[j] = run->attempted;
    const double ops = ratio(static_cast<double>(run->result.completed_ops),
                             run->times.replay_s);
    raw_ops_per_s.push_back(ops);
    raw_setup_s.push_back(run->times.setup_s);
    ops_per_s.push_back(ratio(ops, speed));
    setup_s.push_back(run->times.setup_s * speed);
    speeds.push_back(speed);
  }
  for (std::size_t j = 0; j < k; ++j) {
    report.fingerprint += (j ? "," : "") + expected[j].fingerprint;
    if (!expected[j].telemetry.empty()) {
      report.telemetry_digest +=
          (report.telemetry_digest.empty() ? "" : ",") + expected[j].telemetry;
    }
  }
  add(report, "replay_ops_per_s", median(ops_per_s), "ops/s");
  add(report, "setup_s", median(setup_s), "s");
  add(report, "peak_rss_mb",
      static_cast<double>(peak_rss) / (1024.0 * 1024.0), "MiB");
  add(report, "ok_frac",
      ratio(static_cast<double>(report.attempted - report.failed),
            static_cast<double>(report.attempted)),
      "ratio");
  report.diagnostics = {
      {"timed_cells", static_cast<double>(ops_per_s.size()), "count"},
      {"host_speed", median(speeds), "ratio"},
      {"raw_replay_ops_per_s", median(raw_ops_per_s), "ops/s"},
      {"raw_setup_s", median(raw_setup_s), "s"}};
  return report;
}

Report run_traced(const Workload& workload, const RunOptions& options,
                  SpanLog* spans) {
  Report report = start_report(workload, "traced");
  report.inputs = 1;
  const auto start = Clock::now();
  const bool has_telemetry = workload.config.telemetry.any();

  // The library's own cell body for the same config is the reference every
  // cell below must reproduce, byte for byte in its fingerprint.
  Expected expected;
  std::vector<double> untraced_s;
  {
    const int span = spans ? spans->open("reference") : 0;
    ++report.cells;
    try {
      const edm::sim::RunResult ref =
          workload.source == Source::kStreaming
              ? edm::sim::run_experiment_streaming(workload.config)
              : edm::sim::run_experiment(workload.config);
      report.attempted += ref.completed_ops;
      matches(report, expected, fingerprint(ref),
              ref.telemetry ? telemetry_digest(*ref.telemetry) : "",
              ref.completed_ops);
      untraced_s.push_back(ref.perf.replay_wall_s);
    } catch (const std::exception& e) {
      report.attempted += 1;
      fail(report, 1, std::string("sim::run_experiment threw: ") + e.what());
    }
    if (spans) spans->close(span);
  }

  std::vector<CellRun> traced;
  std::vector<double> telemetry_off_s;
  Expected telemetry_off;
  std::vector<double> round_s;
  std::size_t rounds = 0;
  std::uint64_t known_records = 0;  // counted by the first cell, reused
  HostSpeedProbe probe;
  std::vector<double> probe_s = {probe.measure()};
  while (another_fits(options, start, rounds, 1, median(round_s))) {
    const auto round_start = Clock::now();
    ++rounds;
    CellOptions untraced_opt;
    untraced_opt.known_records = known_records;
    if (auto run = checked_cell(workload, untraced_opt, report, expected)) {
      untraced_s.push_back(run->times.replay_s);
      known_records = run->attempted;
    }
    CellOptions traced_opt;
    traced_opt.known_records = known_records;
    traced_opt.traced = true;
    traced_opt.spans = spans;
    if (auto run = checked_cell(workload, traced_opt, report, expected)) {
      known_records = run->attempted;
      traced.push_back(std::move(*run));
    }
    if (has_telemetry) {
      // Sampler ticks are events, so these cells fingerprint on their own.
      CellOptions off;
      off.known_records = known_records;
      off.telemetry = false;
      if (auto run = checked_cell(workload, off, report, telemetry_off)) {
        telemetry_off_s.push_back(run->times.replay_s);
      }
    }
    probe_s.push_back(probe.measure());
    round_s.push_back(seconds_since(round_start));
  }
  report.fingerprint = expected.fingerprint;
  report.telemetry_digest = expected.telemetry;
  if (traced.empty()) return report;  // nothing measured; failures say why

  const CellRun& last = traced.back();
  const edm::sim::RunResult& r = last.result;
  const LayerCosts layers = run_layer_pass(workload, r, spans);

  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const CellRun& run : traced) v.push_back(field(run));
    return median(v);
  };
  const double wall = median_of([](const CellRun& c) { return c.times.replay_s; });
  const double untraced_wall = median(untraced_s);
  const double records = static_cast<double>(layers.records);
  const double ios = static_cast<double>(layers.osd_ios);
  const bool streaming = workload.source == Source::kStreaming;
  const bool open_loop = workload.source == Source::kOpenLoop;
  constexpr double kNs = 1e9;

  // --- trace ---
  const double trace_ns =
      streaming ? ratio(layers.source_s, records) * kNs : 0.0;
  add(report, "trace.gen_s",
      median_of([](const CellRun& c) { return c.times.source_s; }), "s");
  add(report, "trace.records", records, "count");
  add(report, "trace.ns_per_record", trace_ns, "ns");

  // --- workload ---
  const double arrival_ns =
      open_loop ? ratio(layers.source_s, records) * kNs : 0.0;
  const auto arrivals = static_cast<double>(r.workload.arrivals);
  add(report, "workload.arrivals", arrivals, "count");
  add(report, "workload.ns_per_arrival", arrival_ns, "ns");
  add(report, "workload.peak_queue_depth",
      static_cast<double>(r.workload.peak_queue_depth), "count");

  // --- cluster ---
  const double map_ns = ratio(layers.map_s, records) * kNs;
  add(report, "cluster.build_s",
      median_of([](const CellRun& c) { return c.times.build_s; }), "s");
  add(report, "cluster.populate_s",
      median_of([](const CellRun& c) { return c.times.populate_s; }), "s");
  add(report, "cluster.osd_ios", ios, "count");
  add(report, "cluster.ios_per_record", ratio(ios, records), "ios/record");
  add(report, "cluster.map_ns_per_record", map_ns, "ns");
  add(report, "cluster.fast_path_frac", last.fast_path_frac, "ratio");
  add(report, "cluster.remap_entries",
      static_cast<double>(r.migration.remap_table_size), "count");

  // --- flash ---
  edm::flash::FlashStats total;
  for (const auto& osd : r.per_osd) {
    total.host_page_reads += osd.flash.host_page_reads;
    total.host_page_writes += osd.flash.host_page_writes;
    total.gc_page_moves += osd.flash.gc_page_moves;
    total.erase_count += osd.flash.erase_count;
  }
  const double read_ns =
      ratio(layers.read_s, static_cast<double>(layers.pages_read)) * kNs;
  const double write_ns =
      ratio(layers.write_s, static_cast<double>(layers.pages_written)) * kNs;
  add(report, "flash.warmup_s",
      median_of([](const CellRun& c) { return c.times.warmup_s; }), "s");
  add(report, "flash.read_ns_per_page", read_ns, "ns");
  add(report, "flash.write_ns_per_page", write_ns, "ns");
  add(report, "flash.host_pages_read",
      static_cast<double>(total.host_page_reads), "count");
  add(report, "flash.host_pages_written",
      static_cast<double>(total.host_page_writes), "count");
  add(report, "flash.gc_page_moves", static_cast<double>(total.gc_page_moves),
      "count");
  add(report, "flash.erases", static_cast<double>(total.erase_count), "count");
  add(report, "flash.write_amp", total.write_amplification(), "ratio");

  // --- core ---
  const double tracker_ns = ratio(layers.tracker_s, ios) * kNs;
  const auto plan_calls = static_cast<double>(last.plan_ms.size());
  const double plan_ms = median_of([](const CellRun& c) {
    double sum = 0.0;
    for (double ms : c.plan_ms) sum += ms;
    return sum;
  });
  const double plan_ms_max = median_of([](const CellRun& c) {
    return c.plan_ms.empty()
               ? 0.0
               : *std::max_element(c.plan_ms.begin(), c.plan_ms.end());
  });
  const double view_ms =
      median_of([](const CellRun& c) { return c.view_ms; }) * plan_calls;
  const double sigma_ms =
      median_of([](const CellRun& c) { return c.sigma_fit_ms; });
  // Policy moves only: quarantine drains share the mover and its counter.
  const auto planned = static_cast<double>(r.migration.planned_objects);
  const auto moved =
      static_cast<double>(r.migration.moved_objects - r.health.drain_moved);
  add(report, "core.tracker_ns_per_access", tracker_ns, "ns");
  add(report, "core.plan_calls", plan_calls, "count");
  add(report, "core.plan_ms", plan_ms, "ms");
  add(report, "core.plan_ms_max", plan_ms_max, "ms");
  add(report, "core.view_ms", view_ms, "ms");
  add(report, "core.sigma_fit_ms", sigma_ms, "ms");
  add(report, "core.planned_objects", planned, "count");
  add(report, "core.moved_objects", moved, "count");
  add(report, "core.move_yield", ratio(moved, planned), "ratio");

  // --- sim ---
  const auto events = static_cast<double>(r.perf.events_processed);
  const double eventq_ns =
      ratio(layers.eventq_s, static_cast<double>(layers.eventq_pairs)) * kNs;
  // Everything the layer estimates cover; the rest of the replay wall is
  // the Simulator's own dispatch, bookkeeping, mover and hedge lanes.
  const double covered_s =
      (trace_ns * records + arrival_ns * arrivals + map_ns * records +
       tracker_ns * ios +
       read_ns * static_cast<double>(total.host_page_reads) +
       write_ns * static_cast<double>(total.host_page_writes) +
       eventq_ns * events) /
          kNs +
      (plan_ms + view_ms + sigma_ms) / 1e3;
  const double self_s = wall - covered_s;
  double busy_max = 0.0;
  for (const auto& osd : r.per_osd) {
    busy_max = std::max(busy_max, ratio(static_cast<double>(osd.busy_us),
                                        static_cast<double>(r.makespan_us)));
  }
  const std::uint32_t depth =
      workload.config.flash.parallel_timing()
          ? std::max<std::uint32_t>(1, workload.config.sim.osd_queue_depth)
          : 1;
  add(report, "sim.ctor_s",
      median_of([](const CellRun& c) { return c.times.ctor_s; }), "s");
  add(report, "sim.events", events, "count");
  add(report, "sim.events_per_op",
      ratio(events, static_cast<double>(r.completed_ops)), "events/op");
  add(report, "sim.events_per_s", ratio(events, wall), "1/s");
  add(report, "sim.eventq_ns_per_event", eventq_ns, "ns");
  add(report, "sim.self_s", self_s, "s");
  add(report, "sim.self_frac", ratio(self_s, wall), "ratio");
  add(report, "sim.osd_busy_frac_max", busy_max / depth, "ratio");
  add(report, "sim.hedged_reads", static_cast<double>(r.health.hedged_reads),
      "count");
  add(report, "sim.hedge_win_frac",
      ratio(static_cast<double>(r.health.hedge_wins),
            static_cast<double>(r.health.hedged_reads)),
      "ratio");
  add(report, "sim.drain_moved", static_cast<double>(r.health.drain_moved),
      "count");

  // --- telemetry / bench ---
  add(report, "telemetry.overhead_frac",
      has_telemetry ? ratio(untraced_wall - median(telemetry_off_s),
                            untraced_wall)
                    : 0.0,
      "ratio");
  add(report, "bench.trace_overhead_frac",
      ratio(wall - untraced_wall, untraced_wall), "ratio");
  // Host-clock values above are unscaled; this says how fast the host ran.
  add(report, "bench.host_speed", host_speed(median(probe_s)), "ratio");
  return report;
}

std::string to_json(const Report& report, const std::string& provenance) {
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  auto str = [](const std::string& s) {
    return "\"" + edm::util::provenance_json_escape(s) + "\"";
  };
  std::ostringstream os;
  os << "{\"workload\": " << str(report.workload)
     << ", \"mode\": " << str(report.mode) << ", \"seed\": " << report.seed
     << ", \"scale\": " << num(report.scale)
     << ", \"inputs\": " << report.inputs << ", \"cells\": " << report.cells
     << ", \"correct\": " << (report.correct() ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    os << (i ? ", " : "") << str(report.failures[i]);
  }
  os << "], \"fingerprint\": " << str(report.fingerprint)
     << ", \"telemetry_digest\": " << str(report.telemetry_digest)
     << ", \"provenance\": " << provenance;
  auto section = [&](const char* key, const std::vector<Metric>& metrics) {
    os << ", " << str(key) << ": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      os << (i ? ", " : "") << str(m.name) << ": {\"value\": " << num(m.value)
         << ", \"unit\": " << str(m.unit) << "}";
    }
    os << "}";
  };
  section("diagnostics", report.diagnostics);
  section("metrics", report.metrics);
  os << "}";
  return os.str();
}

}  // namespace perfbench
