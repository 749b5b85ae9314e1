// Single-device wear probe: measures the victim valid ratio u_r of one
// simulated SSD at a controlled disk utilization under a workload profile's
// write pattern.  This regenerates the paper's Fig. 3 experiment -- the
// relation between u and u_r that the sigma = 0.28 wear model (Eq. 3)
// captures -- and is also the calibration instrument for the synthetic
// traces' locality knobs.
#pragma once

#include <cstdint>
#include <vector>

#include "flash/config.h"
#include "trace/profile.h"

namespace edm::sim {

struct WearProbeConfig {
  flash::FlashConfig flash;   // geometry; defaults are fine
  double utilization = 0.7;   // target valid/physical ratio
};

struct WearProbeResult {
  double utilization = 0.0;    // achieved valid/physical ratio
  double measured_ur = 0.0;    // mean victim valid ratio in steady state
  double eq2_ur = 0.0;         // uniform-model prediction (sigma = 0)
  double eq3_ur = 0.0;         // paper-model prediction (sigma = 0.28)
  std::uint64_t erases = 0;
  double write_amplification = 0.0;
};

/// Runs the probe for one workload profile at one utilization point.
WearProbeResult run_wear_probe(const trace::WorkloadProfile& profile,
                               const WearProbeConfig& config);

/// Utilization sweep (the x-axis of Fig. 3).
std::vector<WearProbeResult> sweep_wear_probe(
    const trace::WorkloadProfile& profile, const WearProbeConfig& config,
    const std::vector<double>& utilizations);

}  // namespace edm::sim
