// edm_run -- the command-line front end to the simulation stack.
//
// Runs one experiment cell -- or, with --seeds=N, a deterministic sweep of
// N seed-derived replicas of it on --jobs workers -- and prints a report
// (text or JSON).  Supports the built-in Table I workload profiles or a
// user-supplied trace file (binary or text; see trace/text_io.h for the
// format).
//
// Usage:
//   edm_run [options]
//     --trace=<name>        workload profile (default home02)
//     --trace-file=<path>   replay a trace file instead (.bin or text)
//     --policy=<p>          baseline | cmt | hdf | cdf (default hdf)
//     --scale=<f>           profile scale (default 0.1)
//     --osds=<n>            cluster size (default 16)
//     --groups=<m>          SSD groups (default 4)
//     --clients=<n>         load generators (default osds/2)
//     --trigger=<t>         midpoint | monitor | none (default midpoint)
//     --lambda=<f>          wear-imbalance threshold (default 0.15)
//     --sigma=<f>           wear-model impact factor (default 0.28)
//     --utilization=<f>     max post-population utilization (default 0.76)
//     --flash-geometry=<g>  flat | sata | nvme | CxDxP internal-parallelism
//                           geometry (channels x dies x planes; the named
//                           presets also set bus delays)
//     --bus-delays=<c:d>    per-channel bus delays in us (ctrl:data);
//                           overrides a preset's bus timings
//     --osd-qd=<n>          concurrent requests dispatched into each
//                           parallel-geometry OSD (flat devices stay serial)
//     --separate-gc         enable the hot/cold-separating GC stream
//     --adaptive            online sigma calibration (monitor runs)
//     --fail-osd=<id>       fail OSD id once a fraction of the records is
//                           issued (a FaultPlan fraction failure)
//     --fail-at-fraction=<f> that fraction (default 0.5; requires --fail-osd)
//     --fail-at=<o:t>       schedule: fail OSD o at t simulated seconds
//     --rebuild-at=<o:t>    schedule: start rebuilding OSD o at t seconds
//     --slow-at=<o:t:f[:r:ms]> schedule: OSD o turns fail-slow at t seconds
//                           with service-time factor f (optionally stalling
//                           a fraction r of requests for ms milliseconds)
//     --recover-at=<o:t>    schedule: fail-slow OSD o recovers at t seconds
//     --transient-error-rate=<f> per-sub-request transient error probability
//     --fault-seed=<n>      seed of the stochastic fault streams
//     --health              enable the online fail-slow health monitor
//     --mitigate            hedged reads + quarantine-and-drain (implies
//                           --health)
//     --arrival=<k>         closed | poisson | fixed (default closed);
//                           open kinds switch to open-loop injection
//     --rate=<r>            offered load per tenant in ops/s (open loop)
//     --slo=<ms>            per-op response-time SLO in ms (default 100)
//     --burst=<d:p>         burst train: duty d in (0,1], period p seconds
//     --diurnal=<a:p>       diurnal curve: amplitude a in [0,1), period p s
//     --drift=<p[:s]>       popularity drift: rotate step s (default 1/16)
//                           of the hot set every p simulated seconds
//     --tenants=<specs>     comma-separated profile[:rate[:slo_ms[:scale]]]
//                           overlays (repeatable); default = one tenant
//                           from --trace
//     --arrival-seed=<n>    extra seed salt for the arrival draws
//     --trace-out=<path>    write a Chrome trace-event JSON (Perfetto)
//     --timeseries-out=<p>  write a per-OSD time-series CSV
//     --sample-interval=<s> sampling interval in simulated seconds
//     --seeds=<n>           run n seed-derived replicas as one sweep
//     --base-seed=<s>       base seed for the per-replica derivation
//     --jobs=<n>            sweep workers (0 = hardware threads, 1 = serial)
//     --json                JSON output (schema edm-run-result/4 with a
//                           build-provenance stamp; with --seeds>1,
//                           edm-sweep-result/1)
//     --quiet               summary only (no per-OSD table / timeline)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/aggregate.h"
#include "runner/seed.h"
#include "runner/sweep.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/io.h"
#include "util/flags.h"
#include "util/provenance.h"
#include "workload/tenant.h"

namespace {

struct Options {
  std::string trace = "home02";
  std::string trace_file;
  std::string policy = "hdf";
  double scale = 0.1;
  std::uint32_t osds = 16;
  std::uint32_t groups = 4;
  std::uint16_t clients = 0;
  std::string trigger = "midpoint";
  double lambda = 0.15;
  double sigma = 0.28;
  double utilization = 0.76;
  std::string flash_geometry;
  std::string bus_delays;
  std::uint32_t osd_qd = 1;
  bool separate_gc = false;
  bool adaptive = false;
  std::int32_t fail_osd = -1;
  double fail_at_fraction = 0.5;
  bool fail_at_fraction_seen = false;
  std::vector<std::string> fail_at;
  std::vector<std::string> rebuild_at;
  std::vector<std::string> slow_at;
  std::vector<std::string> recover_at;
  double transient_error_rate = 0.0;
  std::uint32_t fault_seed = 0;
  bool health = false;
  bool mitigate = false;
  std::string arrival = "closed";
  double rate = 0.0;
  double slo_ms = 100.0;
  std::string burst;
  std::string diurnal;
  std::string drift;
  std::vector<std::string> tenants;
  std::uint32_t arrival_seed = 0;
  std::string trace_out;
  std::string timeseries_out;
  double sample_interval_s = 1.0;
  std::uint32_t seeds = 1;
  std::uint32_t base_seed = 0;
  std::uint32_t jobs = 0;
  bool json = false;
  bool quiet = false;
};

edm::util::FlagParser make_parser(Options& opt) {
  edm::util::FlagParser parser;
  parser.add_string("--trace", &opt.trace, "workload profile name");
  parser.add_string("--trace-file", &opt.trace_file,
                    "replay a trace file instead (.bin or text)");
  parser.add_string("--policy", &opt.policy, "baseline | cmt | hdf | cdf");
  parser.add_double("--scale", &opt.scale, "profile scale (1.0 = paper-size)");
  parser.add_uint32("--osds", &opt.osds, "cluster size");
  parser.add_uint32("--groups", &opt.groups, "SSD groups");
  parser.add_uint16("--clients", &opt.clients,
                    "load generators (0 = osds/2)");
  parser.add_string("--trigger", &opt.trigger, "midpoint | monitor | none");
  parser.add_double("--lambda", &opt.lambda, "wear-imbalance threshold");
  parser.add_double("--sigma", &opt.sigma, "wear-model impact factor");
  parser.add_double("--utilization", &opt.utilization,
                    "max post-population utilization");
  parser.add_string("--flash-geometry", &opt.flash_geometry,
                    "flat | sata | nvme | CxDxP (channels x dies x planes)");
  parser.add_string("--bus-delays", &opt.bus_delays,
                    "per-channel bus delays in us (ctrl:data)");
  parser.add_uint32("--osd-qd", &opt.osd_qd,
                    "concurrent requests per parallel-geometry OSD");
  parser.add_bool("--separate-gc", &opt.separate_gc,
                  "enable the hot/cold-separating GC stream");
  parser.add_bool("--adaptive", &opt.adaptive,
                  "online sigma calibration (monitor runs)");
  parser.add_int32("--fail-osd", &opt.fail_osd,
                   "inject an OSD failure mid-replay (-1 = off)");
  parser.add_double("--fail-at-fraction", &opt.fail_at_fraction,
                    "failure point as a record fraction (with --fail-osd)");
  parser.add_string_list("--fail-at", &opt.fail_at,
                         "schedule osd:t(s) device failure (repeatable)");
  parser.add_string_list("--rebuild-at", &opt.rebuild_at,
                         "schedule osd:t(s) online rebuild (repeatable)");
  parser.add_string_list(
      "--slow-at", &opt.slow_at,
      "schedule osd:t(s):factor[:stall_rate:stall_ms] fail-slow onset");
  parser.add_string_list("--recover-at", &opt.recover_at,
                         "schedule osd:t(s) fail-slow recovery (repeatable)");
  parser.add_double("--transient-error-rate", &opt.transient_error_rate,
                    "per-sub-request transient error probability");
  parser.add_uint32("--fault-seed", &opt.fault_seed,
                    "seed of the stochastic fault streams (0 = default)");
  parser.add_bool("--health", &opt.health,
                  "enable the online fail-slow health monitor");
  parser.add_bool("--mitigate", &opt.mitigate,
                  "hedged reads + quarantine-and-drain (implies --health)");
  parser.add_string("--arrival", &opt.arrival,
                    "closed | poisson | fixed (open-loop injection)");
  parser.add_double("--rate", &opt.rate,
                    "offered load per tenant in ops/s (open loop)");
  parser.add_double("--slo", &opt.slo_ms,
                    "per-op response-time SLO in ms (open loop)");
  parser.add_string("--burst", &opt.burst,
                    "burst train duty:period_s (open loop)");
  parser.add_string("--diurnal", &opt.diurnal,
                    "diurnal curve amplitude:period_s (open loop)");
  parser.add_string("--drift", &opt.drift,
                    "popularity drift period_s[:step] (open loop)");
  parser.add_string_list(
      "--tenants", &opt.tenants,
      "comma-separated profile[:rate[:slo_ms[:scale]]] overlays");
  parser.add_uint32("--arrival-seed", &opt.arrival_seed,
                    "extra seed salt for the arrival draws");
  parser.add_string("--trace-out", &opt.trace_out,
                    "write Chrome trace-event JSON (Perfetto-loadable)");
  parser.add_string("--timeseries-out", &opt.timeseries_out,
                    "write per-OSD time-series CSV");
  parser.add_double("--sample-interval", &opt.sample_interval_s,
                    "time-series sampling interval in simulated seconds");
  parser.add_uint32("--seeds", &opt.seeds,
                    "run this many seed-derived replicas as one sweep");
  parser.add_uint32("--base-seed", &opt.base_seed,
                    "base seed for the per-replica derivation");
  parser.add_uint32("--jobs", &opt.jobs,
                    "sweep workers (0 = hardware threads, 1 = serial)");
  parser.add_bool("--json", &opt.json, "JSON output (schema edm-run-result/4)");
  parser.add_bool("--quiet", &opt.quiet,
                  "summary only (no per-OSD table / timeline)");
  return parser;
}

Options parse(int argc, char** argv) {
  Options opt;
  edm::util::FlagParser parser = make_parser(opt);
  switch (parser.parse(argc, argv)) {
    case edm::util::FlagParser::Result::kOk:
      opt.fail_at_fraction_seen = parser.seen("--fail-at-fraction");
      break;
    case edm::util::FlagParser::Result::kHelp:
      parser.print_usage(std::cerr, argv[0]);
      std::exit(0);
    case edm::util::FlagParser::Result::kError:
      std::cerr << parser.error() << "\n";
      parser.print_usage(std::cerr, argv[0]);
      std::exit(2);
  }
  return opt;
}

/// Splits "a:b:c" on `delim` (':' for event specs, 'x' for geometries).
std::vector<std::string> split_fields(const std::string& spec,
                                      char delim = ':') {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (true) {
    const auto pos = spec.find(delim, start);
    out.push_back(spec.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

double parse_num(const std::string& flag, const std::string& field) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0') {
    throw std::invalid_argument(flag + ": bad number '" + field + "'");
  }
  return v;
}

/// Parses one scheduled-event spec "osd:t(s)[:extras...]" and appends the
/// event to `plan`.  `max_fields` bounds the accepted arity per kind.
void add_fault_event(edm::sim::FaultPlan& plan, const std::string& flag,
                     const std::string& spec,
                     edm::sim::FaultEvent::Kind kind, std::size_t max_fields) {
  const std::vector<std::string> f = split_fields(spec);
  if (f.size() < 2 || f.size() > max_fields) {
    throw std::invalid_argument(flag + ": expected '" + spec +
                                "' in the form osd:t" +
                                (max_fields > 2 ? ":factor[:rate:ms]" : ""));
  }
  const auto osd = static_cast<edm::OsdId>(parse_num(flag, f[0]));
  const auto at = static_cast<edm::SimTime>(parse_num(flag, f[1]) * 1e6);
  switch (kind) {
    case edm::sim::FaultEvent::Kind::kFail:
      plan.fail(osd, at);
      break;
    case edm::sim::FaultEvent::Kind::kRebuild:
      plan.rebuild(osd, at);
      break;
    case edm::sim::FaultEvent::Kind::kSlowdown: {
      const double factor = f.size() > 2 ? parse_num(flag, f[2]) : 2.0;
      const double rate = f.size() > 3 ? parse_num(flag, f[3]) : 0.0;
      const auto stall_us = static_cast<edm::SimDuration>(
          (f.size() > 4 ? parse_num(flag, f[4]) : 0.0) * 1e3);
      plan.slow(osd, at, factor, rate, stall_us);
      break;
    }
    case edm::sim::FaultEvent::Kind::kRecover:
      plan.recover(osd, at);
      break;
  }
}

/// Builds the FaultPlan from --fail-osd/--fail-at-fraction and the
/// command-line event specs.  Events are sorted by time (stable, so
/// same-time specs keep command-line order) because FaultPlan::validate
/// rejects unsorted schedules.
edm::sim::FaultPlan fault_plan_from(const Options& opt) {
  edm::sim::FaultPlan plan;
  if (opt.fail_osd >= 0) {
    plan.fail_at_fraction(static_cast<edm::OsdId>(opt.fail_osd),
                          opt.fail_at_fraction);
  }
  using Kind = edm::sim::FaultEvent::Kind;
  for (const auto& s : opt.fail_at) {
    add_fault_event(plan, "--fail-at", s, Kind::kFail, 2);
  }
  for (const auto& s : opt.rebuild_at) {
    add_fault_event(plan, "--rebuild-at", s, Kind::kRebuild, 2);
  }
  for (const auto& s : opt.slow_at) {
    add_fault_event(plan, "--slow-at", s, Kind::kSlowdown, 5);
  }
  for (const auto& s : opt.recover_at) {
    add_fault_event(plan, "--recover-at", s, Kind::kRecover, 2);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const edm::sim::FaultEvent& a,
                      const edm::sim::FaultEvent& b) { return a.at < b.at; });
  plan.transient_error_rate = opt.transient_error_rate;
  if (opt.fault_seed != 0) plan.seed = opt.fault_seed;
  return plan;
}

/// Builds the open-loop config from --arrival/--rate/--burst/--tenants.
/// Returns a disabled config (empty tenants) for --arrival=closed.
edm::workload::OpenLoopConfig open_loop_from(const Options& opt) {
  namespace wl = edm::workload;
  edm::workload::OpenLoopConfig open_loop;
  const wl::ArrivalKind kind = wl::arrival_kind_from(opt.arrival);
  if (kind == wl::ArrivalKind::kClosed) {
    if (!opt.tenants.empty()) {
      throw std::invalid_argument(
          "--tenants needs an open arrival process "
          "(--arrival=poisson|fixed)");
    }
    return open_loop;
  }
  // Defaults every tenant spec inherits; per-tenant fields override.
  wl::TenantSpec defaults;
  defaults.profile = opt.trace;
  defaults.rate_ops_per_sec = opt.rate;
  defaults.slo_ms = opt.slo_ms;
  defaults.arrival = kind;
  if (!opt.burst.empty()) {
    const auto f = split_fields(opt.burst);
    if (f.size() != 2) {
      throw std::invalid_argument("--burst: expected duty:period_s");
    }
    defaults.burst.duty = parse_num("--burst", f[0]);
    defaults.burst.period_s = parse_num("--burst", f[1]);
  }
  if (!opt.diurnal.empty()) {
    const auto f = split_fields(opt.diurnal);
    if (f.size() != 2) {
      throw std::invalid_argument("--diurnal: expected amplitude:period_s");
    }
    defaults.diurnal.amplitude = parse_num("--diurnal", f[0]);
    defaults.diurnal.period_s = parse_num("--diurnal", f[1]);
  }
  if (!opt.drift.empty()) {
    const auto f = split_fields(opt.drift);
    if (f.empty() || f.size() > 2) {
      throw std::invalid_argument("--drift: expected period_s[:step]");
    }
    defaults.drift.period_s = parse_num("--drift", f[0]);
    if (f.size() > 1) defaults.drift.step = parse_num("--drift", f[1]);
  }
  if (opt.tenants.empty()) {
    open_loop.tenants.push_back(defaults);
  } else {
    for (const std::string& flag_value : opt.tenants) {
      std::string::size_type start = 0;
      while (start <= flag_value.size()) {
        const auto comma = flag_value.find(',', start);
        const std::string spec =
            flag_value.substr(start, comma - start);
        if (!spec.empty()) {
          open_loop.tenants.push_back(wl::parse_tenant_spec(spec, defaults));
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
  }
  open_loop.arrival_seed = opt.arrival_seed;
  return open_loop;
}

/// Applies --flash-geometry/--bus-delays/--osd-qd.  Named presets (SATA- vs
/// NVMe-class internal parallelism) set both the geometry and bus delays;
/// an explicit --bus-delays always wins.  "flat" is the paper's 1x1x1
/// serial model -- with zero bus delays it is byte-identical to omitting
/// the flag entirely.
void apply_flash_geometry(edm::sim::ExperimentConfig& cfg,
                          const Options& opt) {
  if (!opt.flash_geometry.empty()) {
    if (opt.flash_geometry == "flat") {
      cfg.flash.geometry = edm::flash::FlashGeometry{};
    } else if (opt.flash_geometry == "sata") {
      cfg.flash.geometry = edm::flash::FlashGeometry{4, 2, 1};
      cfg.flash.bus_ctrl_us = 5;
      cfg.flash.bus_data_us = 40;
    } else if (opt.flash_geometry == "nvme") {
      cfg.flash.geometry = edm::flash::FlashGeometry{8, 4, 2};
      cfg.flash.bus_ctrl_us = 2;
      cfg.flash.bus_data_us = 10;
    } else {
      const auto f = split_fields(opt.flash_geometry, 'x');
      if (f.size() != 3) {
        throw std::invalid_argument(
            "--flash-geometry: expected flat|sata|nvme or CxDxP "
            "(e.g. 4x2x2)");
      }
      cfg.flash.geometry.channels =
          static_cast<std::uint32_t>(parse_num("--flash-geometry", f[0]));
      cfg.flash.geometry.dies_per_channel =
          static_cast<std::uint32_t>(parse_num("--flash-geometry", f[1]));
      cfg.flash.geometry.planes_per_die =
          static_cast<std::uint32_t>(parse_num("--flash-geometry", f[2]));
    }
  }
  if (!opt.bus_delays.empty()) {
    const auto f = split_fields(opt.bus_delays);
    if (f.size() != 2) {
      throw std::invalid_argument("--bus-delays: expected ctrl_us:data_us");
    }
    cfg.flash.bus_ctrl_us =
        static_cast<edm::SimDuration>(parse_num("--bus-delays", f[0]));
    cfg.flash.bus_data_us =
        static_cast<edm::SimDuration>(parse_num("--bus-delays", f[1]));
  }
  cfg.sim.osd_queue_depth = opt.osd_qd;
}

edm::runner::TelemetrySinks sinks_from(const Options& opt) {
  edm::runner::TelemetrySinks sinks;
  sinks.trace_out = opt.trace_out;
  sinks.timeseries_out = opt.timeseries_out;
  sinks.sample_interval_s = opt.sample_interval_s;
  return sinks;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.fail_at_fraction_seen && opt.fail_osd < 0) {
    // The fraction only places a --fail-osd failure; alone it would be
    // dropped and the run would report a healthy cluster.
    std::cerr << "edm_run: --fail-at-fraction requires --fail-osd\n";
    return 2;
  }
  try {
    edm::sim::ExperimentConfig cfg;
    cfg.trace_name = opt.trace;
    cfg.scale = opt.scale;
    cfg.num_osds = opt.osds;
    cfg.num_groups = opt.groups;
    cfg.num_clients = opt.clients;
    cfg.policy = edm::core::policy_kind_from(opt.policy);
    cfg.policy_config.lambda = opt.lambda;
    cfg.policy_config.model =
        edm::core::WearModel(cfg.flash.pages_per_block, opt.sigma);
    cfg.target_max_utilization = opt.utilization;
    apply_flash_geometry(cfg, opt);
    cfg.flash.separate_gc_stream = opt.separate_gc;
    cfg.sim.adaptive_sigma = opt.adaptive;
    cfg.sim.faults = fault_plan_from(opt);
    // Fail fast on a malformed plan, before the (expensive) cluster build;
    // the simulator re-validates as part of SimConfig::validate.
    cfg.sim.faults.validate(opt.osds);
    cfg.sim.health.enabled = opt.health || opt.mitigate;
    cfg.sim.health.mitigate = opt.mitigate;
    cfg.open_loop = open_loop_from(opt);
    if (cfg.open_loop.enabled() && !opt.trace_file.empty()) {
      std::cerr << "edm_run: open-loop mode generates per-tenant streams "
                   "and cannot replay --trace-file\n";
      return 2;
    }
    edm::runner::apply_telemetry(cfg, sinks_from(opt));
    if (opt.trigger == "monitor") {
      cfg.sim.trigger = edm::sim::MigrationTrigger::kMonitor;
      // The paper's 1-minute epoch assumes hours-long runs; scale it so a
      // reduced replay still gets regular monitor evaluations.
      cfg.sim.epoch_length_us = static_cast<edm::SimDuration>(
          std::max(0.5e6, 20e6 * opt.scale));
    } else if (opt.trigger == "none") {
      cfg.sim.trigger = edm::sim::MigrationTrigger::kNone;
    } else if (opt.trigger == "midpoint") {
      cfg.sim.trigger = edm::sim::MigrationTrigger::kForcedMidpoint;
    } else {
      std::cerr << "unknown trigger: " << opt.trigger << "\n";
      return 2;
    }

    if (opt.seeds > 1) {
      // Sweep mode: N seed-derived replicas of the cell, one run per
      // worker, aggregated in replica order (deterministic at any --jobs).
      if (!opt.trace_file.empty()) {
        std::cerr << "edm_run: --seeds requires a generated workload "
                     "(--trace), not --trace-file\n";
        return 2;
      }
      edm::runner::SweepOptions sweep;
      sweep.jobs = opt.jobs;
      sweep.derive_seeds = true;
      sweep.base_seed = opt.base_seed;
      sweep.label = "edm_run";
      sweep.progress = opt.quiet ? nullptr : &std::cerr;
      sweep.sinks = sinks_from(opt);
      const auto results = edm::runner::run_sweep(
          std::vector<edm::sim::ExperimentConfig>(opt.seeds, cfg), sweep);
      if (opt.json) {
        edm::runner::write_sweep_json(results, std::cout);
      } else {
        for (std::size_t i = 0; i < results.size(); ++i) {
          std::cout << "== replica " << i << " (seed "
                    << edm::runner::derive_seed(opt.base_seed, i) << ") ==\n";
          edm::sim::write_report(results[i], std::cout, false, false);
        }
        edm::runner::write_sweep_csv(results, std::cout);
      }
      return 0;
    }

    edm::sim::RunResult result;
    if (!opt.trace_file.empty()) {
      const auto trace = edm::trace::load_any_trace_file(opt.trace_file);
      cfg.trace_name = trace.name;
      result = edm::sim::run_experiment(cfg, trace);
    } else {
      result = edm::sim::run_experiment(cfg);
    }

    edm::runner::write_run_outputs(result, sinks_from(opt), 0, 1);
    if (opt.json) {
      // Single-run JSON is stamped with build provenance so committed
      // results are as attributable as bench output (EDM_GIT_COMMIT is
      // picked up from the environment when set).
      const edm::util::Provenance prov = edm::util::collect_provenance();
      edm::sim::write_json(result, std::cout, &prov);
    } else {
      edm::sim::write_report(result, std::cout, !opt.quiet, !opt.quiet);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "edm_run: " << e.what() << "\n";
    return 1;
  }
}
