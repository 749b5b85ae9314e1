// Telemetry under the parallel experiment grid: every cell gets its own
// Recorder (thread confinement), so concurrent cells must not share or
// corrupt telemetry state.  Run under the tsan preset by tools/check.sh.
#include <gtest/gtest.h>

#include <sstream>

#include "runner/sweep.h"
#include "telemetry/telemetry.h"

namespace edm::sim {
namespace {

ExperimentConfig traced_cell(core::PolicyKind policy) {
  ExperimentConfig cfg;
  cfg.trace_name = "home02";
  cfg.scale = 0.004;
  cfg.num_osds = 8;
  cfg.policy = policy;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 700'000;
  return cfg;
}

TEST(TelemetryThread, ParallelGridKeepsRecordersIndependent) {
  // Four concurrent cells, two of them identical: the identical pair must
  // come back with bit-identical telemetry even though they ran on
  // different pool workers, and every cell owns a distinct recorder.
  std::vector<ExperimentConfig> cells = {
      traced_cell(core::PolicyKind::kHdf),
      traced_cell(core::PolicyKind::kCdf),
      traced_cell(core::PolicyKind::kHdf),
      traced_cell(core::PolicyKind::kNone),
  };

  runner::SweepOptions opt;
  opt.jobs = 4;
  const auto results = runner::run_sweep(cells, opt);

  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_NE(results[i].telemetry, nullptr) << "cell " << i;
    for (std::size_t j = i + 1; j < results.size(); ++j) {
      EXPECT_NE(results[i].telemetry, results[j].telemetry);
    }
  }

  std::ostringstream t0, t2;
  results[0].telemetry->tracer()->write_chrome_json(t0);
  results[2].telemetry->tracer()->write_chrome_json(t2);
  EXPECT_EQ(t0.str(), t2.str());

  std::ostringstream c0, c2;
  results[0].telemetry->sampler()->write_csv(c0);
  results[2].telemetry->sampler()->write_csv(c2);
  EXPECT_EQ(c0.str(), c2.str());
}

}  // namespace
}  // namespace edm::sim
