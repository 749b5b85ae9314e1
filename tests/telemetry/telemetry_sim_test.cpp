// End-to-end telemetry through the simulator: determinism of the exported
// streams, the sampler's row-count contract, and presence of the event
// taxonomy in instrumented runs.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "sim/experiment.h"
#include "telemetry/telemetry.h"

namespace edm::sim {
namespace {

ExperimentConfig small_cell(core::PolicyKind policy) {
  ExperimentConfig cfg;
  cfg.trace_name = "home02";
  cfg.scale = 0.004;
  cfg.num_osds = 8;
  cfg.policy = policy;
  return cfg;
}

telemetry::TelemetryConfig full_telemetry() {
  telemetry::TelemetryConfig tc;
  tc.trace_enabled = true;
  tc.metrics_enabled = true;
  tc.sample_interval_us = 700'000;  // deliberately not a divisor of anything
  return tc;
}

TEST(TelemetrySim, DisabledRunCarriesNoRecorder) {
  const RunResult r = run_experiment(small_cell(core::PolicyKind::kHdf));
  EXPECT_EQ(r.telemetry, nullptr);
}

TEST(TelemetrySim, IdenticalRunsProduceBitIdenticalStreams) {
  // Three inputs: closed-loop HDF; the endurance-aware hot path (CDF on
  // the wear monitor with adaptive sigma and the health monitor with
  // mitigation, which must migrate); and two open-loop tenants.
  ExperimentConfig monitor = small_cell(core::PolicyKind::kCdf);
  monitor.trace_name = "lair62";
  monitor.policy_config.lambda = 0.01;
  monitor.sim.trigger = MigrationTrigger::kMonitor;
  monitor.sim.monitor_cooldown_epochs = 1;
  monitor.sim.epoch_length_us = 500'000;
  monitor.sim.adaptive_sigma = true;
  monitor.sim.health.enabled = true;
  monitor.sim.health.mitigate = true;
  ExperimentConfig open_loop = small_cell(core::PolicyKind::kHdf);
  workload::TenantSpec home;
  home.profile = "home02";
  home.rate_ops_per_sec = 3000.0;
  workload::TenantSpec lair;
  lair.profile = "lair62";
  lair.rate_ops_per_sec = 1500.0;
  open_loop.open_loop.tenants = {home, lair};
  for (ExperimentConfig cfg :
       {small_cell(core::PolicyKind::kHdf), monitor, open_loop}) {
    cfg.telemetry = full_telemetry();
    const RunResult a = run_experiment(cfg);
    const RunResult b = run_experiment(cfg);
    ASSERT_NE(a.telemetry, nullptr);
    ASSERT_NE(b.telemetry, nullptr);
    if (cfg.sim.trigger == MigrationTrigger::kMonitor) {
      EXPECT_GT(a.migration.moved_objects, 0u) << "monitor input never moved";
    }

    std::ostringstream trace_a, trace_b;
    a.telemetry->tracer()->write_chrome_json(trace_a);
    b.telemetry->tracer()->write_chrome_json(trace_b);
    EXPECT_GT(trace_a.str().size(), 2u);
    EXPECT_EQ(trace_a.str(), trace_b.str());

    std::ostringstream csv_a, csv_b;
    a.telemetry->sampler()->write_csv(csv_a);
    b.telemetry->sampler()->write_csv(csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str());
  }
}

TEST(TelemetrySim, SampleRowCountMatchesMakespan) {
  auto cfg = small_cell(core::PolicyKind::kNone);
  cfg.telemetry.sample_interval_us = 700'000;
  const RunResult r = run_experiment(cfg);
  ASSERT_NE(r.telemetry, nullptr);
  const auto* sampler = r.telemetry->sampler();
  ASSERT_NE(sampler, nullptr);
  ASSERT_GT(r.makespan_us, 0);
  // One tick per interval, plus the final tick that observes the idle
  // cluster: ceil(makespan / interval) rows (interval chosen to not divide
  // the makespan exactly).
  ASSERT_NE(r.makespan_us % cfg.telemetry.sample_interval_us, 0);
  const auto expected = static_cast<std::size_t>(
      (r.makespan_us + cfg.telemetry.sample_interval_us - 1) /
      cfg.telemetry.sample_interval_us);
  EXPECT_EQ(sampler->rows().size(), expected);
  // Rows are on-grid and strictly increasing; every row covers the cluster.
  SimTime prev = 0;
  for (const auto& row : sampler->rows()) {
    EXPECT_EQ(row.t % cfg.telemetry.sample_interval_us, 0);
    EXPECT_GT(row.t, prev);
    prev = row.t;
    EXPECT_EQ(row.osds.size(), cfg.num_osds);
  }
}

TEST(TelemetrySim, SamplerSeesMonotoneErases) {
  auto cfg = small_cell(core::PolicyKind::kNone);
  cfg.telemetry.sample_interval_us = 500'000;
  const RunResult r = run_experiment(cfg);
  const auto& rows = r.telemetry->sampler()->rows();
  ASSERT_GE(rows.size(), 2u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    for (std::size_t o = 0; o < rows[i].osds.size(); ++o) {
      EXPECT_GE(rows[i].osds[o].erases, rows[i - 1].osds[o].erases);
    }
  }
}

TEST(TelemetrySim, TraceContainsTaxonomy) {
  auto cfg = small_cell(core::PolicyKind::kHdf);
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  const RunResult r = run_experiment(cfg);
  const auto* tracer = r.telemetry->tracer();
  ASSERT_NE(tracer, nullptr);

  bool saw_request = false, saw_migration = false, saw_policy = false;
  for (const auto& e : tracer->events()) {
    saw_request |= e.category == telemetry::Category::kRequest;
    saw_migration |= e.category == telemetry::Category::kMigration;
    saw_policy |= e.category == telemetry::Category::kPolicy;
  }
  EXPECT_TRUE(saw_request);   // client op spans
  EXPECT_TRUE(saw_migration); // forced-midpoint HDF moves objects
  EXPECT_TRUE(saw_policy);    // plan() instants
  EXPECT_EQ(tracer->dropped(), 0u);

  // Metrics agree with the run's own accounting.
  const auto* metrics = r.telemetry->metrics();
  ASSERT_NE(metrics, nullptr);
  bool checked = false;
  metrics->for_each_counter(
      [&](const std::string& name, const telemetry::Counter& c) {
        if (name == "sim.ops_completed") {
          EXPECT_EQ(c.value(), r.completed_ops);
          checked = true;
        }
      });
  EXPECT_TRUE(checked);
}

TEST(TelemetrySim, TelemetryDoesNotPerturbTheSimulation) {
  // The recorder observes; it must never change scheduling decisions.
  auto plain = small_cell(core::PolicyKind::kHdf);
  auto traced = plain;
  traced.telemetry = full_telemetry();
  const RunResult a = run_experiment(plain);
  const RunResult b = run_experiment(traced);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.migration.moved_objects, b.migration.moved_objects);
  EXPECT_EQ(a.aggregate_erases(), b.aggregate_erases());
}

}  // namespace
}  // namespace edm::sim
