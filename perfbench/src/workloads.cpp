#include "workloads.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

using edm::SimDuration;
using edm::core::PolicyKind;
using edm::sim::MigrationTrigger;

// Offered load of the open-loop tenants: 25% of each profile's solo
// closed-loop throughput on the nvme geometry at osd_qd 8 (117.6k ops/s
// for home02, 61.1k ops/s for lair62, simulated), so the two together
// offer ~50% of what the cluster serves.  Nearer capacity the fail-slow
// backlog depends on how much of the hot set OSD 3 holds: at 80% the
// peak queue ranged from 0.4k to 238k over eight inputs, and host time
// and peak RSS followed it.  Fixed, not probed per run: a probe would cost
// a replay and move with the seed.
constexpr double kHomeRate = 29400.0;
constexpr double kLairRate = 15275.0;

Workload read_midpoint(double scale) {
  Workload w;
  w.name = "read-midpoint";
  w.source = Source::kMaterialised;
  w.config.trace_name = "home02";
  w.config.scale = scale;
  w.config.policy = PolicyKind::kHdf;
  w.config.sim.trigger = MigrationTrigger::kForcedMidpoint;
  return w;
}

Workload write_monitor(double scale) {
  Workload w;
  w.name = "write-monitor";
  w.source = Source::kStreaming;
  w.config.trace_name = "lair62";
  w.config.scale = scale;
  w.config.policy = PolicyKind::kCdf;
  w.config.sim.trigger = MigrationTrigger::kMonitor;
  w.config.sim.adaptive_sigma = true;
  // As bench/ablation_lambda: at the default 60 s epoch and 5-epoch
  // cooldown a reduced replay ends before the monitor ever plans.
  w.config.sim.monitor_cooldown_epochs = 2;
  w.config.sim.epoch_length_us =
      static_cast<SimDuration>(std::max(0.5e6, 20e6 * scale));
  w.config.telemetry.metrics_enabled = true;
  w.config.telemetry.sample_interval_us = 1000 * 1000;
  return w;
}

Workload openloop_failslow(double scale) {
  Workload w;
  w.name = "openloop-failslow";
  w.source = Source::kOpenLoop;
  w.config.scale = scale;
  w.config.policy = PolicyKind::kNone;
  w.config.sim.trigger = MigrationTrigger::kNone;
  w.config.flash.geometry = {8, 4, 2};  // edm_run --flash-geometry=nvme
  w.config.flash.bus_ctrl_us = 2;
  w.config.flash.bus_data_us = 10;
  w.config.sim.osd_queue_depth = 8;
  w.config.sim.health.enabled = true;
  w.config.sim.health.mitigate = true;
  w.config.sim.health.check_interval_us = 500 * 1000;  // as ext_failslow
  // OSD 3 runs at 4x service time (past the monitor's 3x flag ratio) from
  // ~11% to ~17% of the arrival span, long enough to be flagged, hedged and
  // drained.  Seeded stalls are left out: they made the backlog chaotic.
  w.config.sim.faults.slow(3, static_cast<edm::SimTime>(20e6 * scale), 4.0);
  w.config.sim.faults.recover(3, static_cast<edm::SimTime>(30e6 * scale));
  edm::workload::TenantSpec home;
  home.profile = "home02";
  home.rate_ops_per_sec = kHomeRate;
  edm::workload::TenantSpec lair;
  lair.profile = "lair62";
  lair.rate_ops_per_sec = kLairRate;
  w.config.open_loop.tenants = {home, lair};
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "read-midpoint", "write-monitor", "openloop-failslow"};
  return names;
}

Workload make_workload(const std::string& name, double scale,
                       std::uint64_t seed) {
  if (scale <= 0.0) scale = kDefaultScale;
  Workload w;
  if (name == "read-midpoint") {
    w = read_midpoint(scale);
  } else if (name == "write-monitor") {
    w = write_monitor(scale);
  } else if (name == "openloop-failslow") {
    w = openloop_failslow(scale);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.config.trace_seed_offset = seed;
  w.config.open_loop.arrival_seed = seed;
  return w;
}

std::vector<Workload> input_set(const std::string& name, double scale,
                                std::uint64_t seed, std::uint32_t count) {
  std::vector<Workload> inputs;
  for (std::uint32_t j = 0; j < count; ++j) {
    inputs.push_back(make_workload(name, scale, seed * count + j));
  }
  return inputs;
}

edm::cluster::ClusterConfig cluster_config_for(
    const edm::sim::ExperimentConfig& cfg) {
  edm::cluster::ClusterConfig ccfg;
  ccfg.num_osds = cfg.num_osds;
  ccfg.num_groups = cfg.num_groups;
  ccfg.group_sizes = cfg.group_sizes;
  ccfg.objects_per_file = cfg.objects_per_file;
  ccfg.target_max_utilization = cfg.target_max_utilization;
  ccfg.flash = cfg.flash;
  return ccfg;
}

edm::trace::WorkloadProfile profile_for(const edm::sim::ExperimentConfig& cfg) {
  edm::trace::WorkloadProfile profile =
      edm::trace::profile_by_name(cfg.trace_name).scaled(cfg.scale);
  profile.seed ^= cfg.trace_seed_offset;
  return profile;
}

}  // namespace perfbench
