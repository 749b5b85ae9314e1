#include "sim/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "cluster/cluster.h"
#include "trace/cursor.h"
#include "trace/generator.h"

namespace edm::sim {

ExperimentConfig finalize(const ExperimentConfig& config) {
  ExperimentConfig out = config;
  if (!out.group_sizes.empty()) {
    out.num_osds = 0;
    for (std::uint32_t size : out.group_sizes) out.num_osds += size;
    out.num_groups = static_cast<std::uint32_t>(out.group_sizes.size());
  }
  if (out.num_clients == 0) {
    // Paper SV.A: "the number of load-generating clients is half of the
    // number of OSDs".
    out.num_clients = static_cast<std::uint16_t>(std::max(1u, out.num_osds / 2));
  }
  out.sim.num_clients = out.num_clients;
  if (out.scale_time_windows && out.scale < 1.0) {
    // Keep the response-timeline point count comparable under reduced
    // replays.  The temperature epoch is deliberately NOT scaled: Eq. 6's
    // halving gives the tracker a ~2-epoch memory, and shrinking the epoch
    // with the trace would leave only bursty session noise in the
    // temperatures (observed to mis-rank objects by ~2x).
    const double factor = std::max(out.scale, 0.01);
    out.sim.response_window_us = static_cast<SimDuration>(std::max(
        1e6, static_cast<double>(out.sim.response_window_us) * factor));
    out.scale_time_windows = false;  // idempotent: finalize may run twice
  }
  // Wear model Np must match the flash geometry.
  out.policy_config.model = core::WearModel(
      out.flash.pages_per_block, out.policy_config.model.sigma());
  // Open-loop tenants inherit the experiment's trace scale by default.
  for (workload::TenantSpec& tenant : out.open_loop.tenants) {
    if (tenant.scale <= 0.0) tenant.scale = out.scale;
  }
  return out;
}

namespace {

cluster::ClusterConfig cluster_config_for(const ExperimentConfig& cfg) {
  cluster::ClusterConfig ccfg;
  ccfg.num_osds = cfg.num_osds;
  ccfg.num_groups = cfg.num_groups;
  ccfg.group_sizes = cfg.group_sizes;
  ccfg.objects_per_file = cfg.objects_per_file;
  ccfg.target_max_utilization = cfg.target_max_utilization;
  ccfg.flash = cfg.flash;
  return ccfg;
}

/// Shared cell body for both trace sources: `source` is either a
/// materialised trace::Trace or a trace::TraceCursor -- the Simulator
/// constructor overloads select the replay mode.
template <typename Source>
RunResult run_cell_with(const ExperimentConfig& cfg,
                        const std::vector<trace::FileSpec>& files,
                        Source& source) {
  const auto setup_start = std::chrono::steady_clock::now();

  cluster::Cluster cluster(cluster_config_for(cfg), files);
  // Pre-create + populate + dummy-fill to GC steady state, then measure
  // from a clean window (paper SIV).
  cluster.populate();
  cluster.steady_state_warmup();
  cluster.reset_flash_stats();

  auto policy = core::make_policy(cfg.policy, cfg.policy_config);
  SimConfig sim_cfg = cfg.sim;
  if (cfg.policy == core::PolicyKind::kNone) {
    sim_cfg.trigger = MigrationTrigger::kNone;
  }
  std::shared_ptr<telemetry::Recorder> recorder;
  if (cfg.telemetry.any()) {
    recorder = std::make_shared<telemetry::Recorder>(cfg.telemetry);
    sim_cfg.recorder = recorder.get();
  }
  Simulator simulator(sim_cfg, cluster, source, policy.get());
  const auto replay_start = std::chrono::steady_clock::now();
  RunResult result = simulator.run();
  const auto replay_end = std::chrono::steady_clock::now();
  result.perf.setup_wall_s =
      std::chrono::duration<double>(replay_start - setup_start).count();
  result.perf.replay_wall_s =
      std::chrono::duration<double>(replay_end - replay_start).count();
  result.telemetry = std::move(recorder);
  return result;
}

RunResult run_cell(const ExperimentConfig& raw, const trace::Trace& trace) {
  const ExperimentConfig cfg = finalize(raw);
  return run_cell_with(cfg, trace.files, trace);
}

trace::WorkloadProfile profile_for(const ExperimentConfig& cfg) {
  trace::WorkloadProfile profile =
      trace::profile_by_name(cfg.trace_name).scaled(cfg.scale);
  profile.seed ^= cfg.trace_seed_offset;
  return profile;
}

}  // namespace

RunResult run_experiment(const ExperimentConfig& config,
                         const trace::Trace& trace) {
  if (config.open_loop.enabled()) {
    throw std::invalid_argument(
        "run_experiment(config, trace): open-loop mode generates its own "
        "per-tenant streams and cannot replay a pre-generated trace");
  }
  return run_cell(config, trace);
}

RunResult run_experiment(const ExperimentConfig& config) {
  const ExperimentConfig cfg = finalize(config);
  if (cfg.open_loop.enabled()) {
    // Open loop is inherently streaming: each tenant pulls lazily from its
    // own RecordStream; nothing is materialised.
    workload::OpenLoopSource source(cfg.open_loop, cfg.num_clients,
                                    cfg.trace_seed_offset);
    return run_cell_with(cfg, source.files(), source);
  }
  const trace::Trace trace =
      trace::TraceGenerator(profile_for(cfg), cfg.num_clients).generate();
  return run_cell(cfg, trace);
}

RunResult run_experiment_streaming(const ExperimentConfig& config) {
  if (config.open_loop.enabled()) return run_experiment(config);
  const ExperimentConfig cfg = finalize(config);
  trace::TraceCursor cursor(profile_for(cfg), cfg.num_clients);
  return run_cell_with(cfg, cursor.files(), cursor);
}

}  // namespace edm::sim
