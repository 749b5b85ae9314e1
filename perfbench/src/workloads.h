// The replay benchmark's three named workloads (README.md "Workloads").
//
// Each workload is an ExperimentConfig plus the trace source its replay
// pulls from.  The benchmark seed feeds only the generated inputs:
// ExperimentConfig::trace_seed_offset (every trace profile) and, in the
// open-loop workload, OpenLoopConfig::arrival_seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "sim/experiment.h"
#include "trace/profile.h"

namespace perfbench {

/// Where the replay takes its records from -- which Simulator constructor
/// the cell uses.
enum class Source {
  kMaterialised,  // trace::TraceGenerator::generate(), one Trace in memory
  kStreaming,     // trace::TraceCursor, records pulled lazily per lane
  kOpenLoop,      // workload::OpenLoopSource, Poisson arrivals per tenant
};

struct Workload {
  std::string name;
  Source source = Source::kMaterialised;
  /// As a caller would hand it to sim::run_experiment (not finalized).
  edm::sim::ExperimentConfig config;
};

/// Workload names in their canonical order.
const std::vector<std::string>& workload_names();

/// Trace scale every workload runs at unless the caller overrides it.
/// Sized so one set-up plus replay takes well under a host second: a run
/// times dozens of cells, and the host's swings of speed over seconds
/// average out in the medians.
inline constexpr double kDefaultScale = 0.1;

/// Builds the named workload at `scale` (<= 0 = kDefaultScale) for `seed`.
/// Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, double scale,
                       std::uint64_t seed);

/// The generated inputs one benchmark run replays for `seed`: `count`
/// instances of the workload with trace seeds seed*count ... seed*count +
/// count - 1.  Averaging over several inputs is what keeps a run's
/// throughput from swinging with one trace's migrations.
std::vector<Workload> input_set(const std::string& name, double scale,
                                std::uint64_t seed, std::uint32_t count);

/// The ClusterConfig and trace profile sim::run_experiment derives from a
/// finalized config (its own helpers are internal to the library).
edm::cluster::ClusterConfig cluster_config_for(
    const edm::sim::ExperimentConfig& cfg);
edm::trace::WorkloadProfile profile_for(const edm::sim::ExperimentConfig& cfg);

}  // namespace perfbench
