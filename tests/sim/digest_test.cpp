// Behaviour-preservation digests for the performance work on the hot path.
//
// Each cell below runs a full experiment and renders its report JSON (and,
// for the telemetry cell, the Chrome trace stream and time-series CSV);
// the bytes must match reference fixtures captured from the tree *before*
// the PR-4 optimisations (calendar event queue, batched flash range ops,
// flat temperature maps, locate/dispatch fast paths).  Any behavioural
// drift an optimisation introduces -- a reordered event, a different GC
// decision, a missing counter increment -- shows up here as a byte diff.
//
// Regenerating fixtures (only legitimate when a PR *intentionally* changes
// simulation behaviour and says so):
//
//   EDM_DIGEST_REGEN=1 ./build/tests/sim_tests --gtest_filter='Digest*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "telemetry/telemetry.h"

namespace edm::sim {
namespace {

#ifndef EDM_TEST_DATA_DIR
#error "EDM_TEST_DATA_DIR must point at tests/data"
#endif

std::string fixture_path(const std::string& name) {
  return std::string(EDM_TEST_DATA_DIR) + "/digest/" + name;
}

bool regen() { return std::getenv("EDM_DIGEST_REGEN") != nullptr; }

/// Compares `actual` against the named fixture, or rewrites the fixture in
/// regen mode.  Byte comparison: even a float-formatting change counts.
void check_digest(const std::string& name, const std::string& actual) {
  const std::string path = fixture_path(name);
  if (regen()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.is_open()) << "cannot write fixture " << path;
    os << actual;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open()) << "missing fixture " << path
                            << " (run with EDM_DIGEST_REGEN=1 to create)";
  std::ostringstream expected;
  expected << is.rdbuf();
  ASSERT_EQ(expected.str(), actual)
      << "simulation output drifted from the pre-optimisation reference ("
      << name << ")";
}

std::string report_json(const RunResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

ExperimentConfig base_cell(const std::string& trace, core::PolicyKind policy) {
  ExperimentConfig cfg;
  cfg.trace_name = trace;
  cfg.policy = policy;
  cfg.scale = 0.01;
  cfg.num_osds = 8;
  cfg.num_groups = 4;
  return cfg;
}

TEST(Digest, BaselineHome02) {
  check_digest("home02_baseline.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kNone))));
}

TEST(Digest, CmtHome02) {
  check_digest("home02_cmt.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kCmt))));
}

TEST(Digest, HdfHome02) {
  check_digest("home02_hdf.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kHdf))));
}

TEST(Digest, CdfHome02) {
  check_digest("home02_cdf.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kCdf))));
}

TEST(Digest, HdfLair62MultiChannelGcStream) {
  // Write-skewed trace with channel parallelism and the separated GC
  // stream: exercises channel_adjusted() and the GC-stream append path
  // that the batched write_range fast path must reproduce exactly.
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kHdf);
  cfg.flash.num_channels = 4;
  cfg.flash.separate_gc_stream = true;
  check_digest("lair62_hdf_channels.json", report_json(run_experiment(cfg)));
}

TEST(Digest, CdfLair62MonitorAdaptive) {
  // Monitor trigger + adaptive sigma: epoch-tick heavy, so the calendar
  // queue's far-tier (60 s epoch events) ordering is pinned too.
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kCdf);
  cfg.sim.trigger = MigrationTrigger::kMonitor;
  cfg.sim.adaptive_sigma = true;
  check_digest("lair62_cdf_monitor.json", report_json(run_experiment(cfg)));
}

// Monitor trigger + adaptive sigma at an epoch short enough that the
// monitor plans repeatedly: pins the sigma fit -> Algorithm 1 -> move path
// end to end, which the 60 s-epoch cell above never reaches (it records
// zero triggers).  home02 at this scale is one where adaptive sigma changes
// the bytes; lair62 is not.
ExperimentConfig adaptive_planning_cell(core::PolicyKind policy,
                                        SimDuration epoch_us) {
  ExperimentConfig cfg = base_cell("home02", policy);
  cfg.sim.trigger = MigrationTrigger::kMonitor;
  cfg.sim.adaptive_sigma = true;
  cfg.sim.epoch_length_us = epoch_us;
  cfg.sim.monitor_cooldown_epochs = 2;
  return cfg;
}

ExperimentConfig cdf_adaptive_planning_cell() {
  return adaptive_planning_cell(core::PolicyKind::kCdf, 500'000);
}

ExperimentConfig hdf_adaptive_planning_cell() {
  return adaptive_planning_cell(core::PolicyKind::kHdf, 250'000);
}

/// The cell must plan at least twice, and turning adaptive sigma off must
/// change its report -- otherwise the fixture would pin a run that never
/// exercises the fit.
void expect_plans_under_adaptive_sigma(const ExperimentConfig& cfg,
                                       const RunResult& result) {
  EXPECT_GE(result.migration.triggers, 2u);
  ExperimentConfig fixed = cfg;
  fixed.sim.adaptive_sigma = false;
  EXPECT_NE(report_json(run_experiment(fixed)), report_json(result))
      << "adaptive sigma no longer changes this cell's report";
}

TEST(Digest, CdfHome02MonitorAdaptivePlans) {
  const ExperimentConfig cfg = cdf_adaptive_planning_cell();
  const RunResult result = run_experiment(cfg);
  check_digest("home02_cdf_monitor_adaptive.json", report_json(result));
  expect_plans_under_adaptive_sigma(cfg, result);
}

TEST(Digest, HdfHome02MonitorAdaptivePlans) {
  const ExperimentConfig cfg = hdf_adaptive_planning_cell();
  const RunResult result = run_experiment(cfg);
  check_digest("home02_hdf_monitor_adaptive.json", report_json(result));
  expect_plans_under_adaptive_sigma(cfg, result);
}

// --- Streaming-path digests -----------------------------------------
//
// The same cells replayed through run_experiment_streaming (TraceCursor
// lanes instead of a materialised trace) must produce the byte-identical
// report: streaming changes memory shape, never behaviour.  These always
// compare -- fixtures are only ever (re)generated by the materialised
// tests above, so a divergence between the two paths cannot be hidden by
// a regen run.

TEST(Digest, StreamingBaselineHome02) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  check_digest("home02_baseline.json",
               report_json(run_experiment_streaming(
                   base_cell("home02", core::PolicyKind::kNone))));
}

TEST(Digest, StreamingHdfHome02) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  check_digest("home02_hdf.json",
               report_json(run_experiment_streaming(
                   base_cell("home02", core::PolicyKind::kHdf))));
}

TEST(Digest, StreamingCdfLair62MonitorAdaptive) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kCdf);
  cfg.sim.trigger = MigrationTrigger::kMonitor;
  cfg.sim.adaptive_sigma = true;
  check_digest("lair62_cdf_monitor.json",
               report_json(run_experiment_streaming(cfg)));
}

TEST(Digest, StreamingCdfHome02MonitorAdaptivePlans) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  check_digest("home02_cdf_monitor_adaptive.json",
               report_json(run_experiment_streaming(
                   cdf_adaptive_planning_cell())));
}

TEST(Digest, StreamingHdfHome02MonitorAdaptivePlans) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  check_digest("home02_hdf_monitor_adaptive.json",
               report_json(run_experiment_streaming(
                   hdf_adaptive_planning_cell())));
}

TEST(Digest, StreamingHdfDeasnaFaultsAndTelemetry) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  ExperimentConfig cfg = base_cell("deasna", core::PolicyKind::kHdf);
  cfg.sim.faults.fail(2, 30ull * 1000 * 1000)
      .rebuild(2, 120ull * 1000 * 1000);
  cfg.sim.faults.transient_error_rate = 0.002;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 1000 * 1000;

  const RunResult result = run_experiment_streaming(cfg);
  check_digest("deasna_hdf_faults.json", report_json(result));

  ASSERT_NE(result.telemetry, nullptr);
  std::ostringstream trace_os;
  result.telemetry->tracer()->write_chrome_json(trace_os);
  check_digest("deasna_hdf_faults_trace.json", trace_os.str());
  std::ostringstream ts_os;
  result.telemetry->sampler()->write_csv(ts_os);
  check_digest("deasna_hdf_faults_timeseries.csv", ts_os.str());
}

TEST(Digest, HdfDeasnaFaultsAndTelemetry) {
  // Faults (scheduled fail + online rebuild + transient errors) with the
  // full telemetry stack on.  The report JSON pins the metric counters;
  // the Chrome trace stream and time-series CSV pin every span timestamp
  // and sampled queue depth -- the strictest byte-identity check we have.
  ExperimentConfig cfg = base_cell("deasna", core::PolicyKind::kHdf);
  cfg.sim.faults.fail(2, 30ull * 1000 * 1000)
      .rebuild(2, 120ull * 1000 * 1000);
  cfg.sim.faults.transient_error_rate = 0.002;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 1000 * 1000;

  const RunResult result = run_experiment(cfg);
  check_digest("deasna_hdf_faults.json", report_json(result));

  ASSERT_NE(result.telemetry, nullptr);
  std::ostringstream trace_os;
  result.telemetry->tracer()->write_chrome_json(trace_os);
  check_digest("deasna_hdf_faults_trace.json", trace_os.str());
  std::ostringstream ts_os;
  result.telemetry->sampler()->write_csv(ts_os);
  check_digest("deasna_hdf_faults_timeseries.csv", ts_os.str());
}

}  // namespace
}  // namespace edm::sim
