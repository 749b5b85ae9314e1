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

// Faults (a device failure inside the replay, which ends at about 2.25 s,
// an online rebuild after it, and transient errors) with the full
// telemetry stack on.  The report JSON pins the metric counters; the
// Chrome trace stream and time-series CSV pin every span timestamp and
// sampled queue depth -- the strictest byte-identity check we have.
ExperimentConfig deasna_faults_cell() {
  ExperimentConfig cfg = base_cell("deasna", core::PolicyKind::kHdf);
  cfg.sim.faults.fail(2, 1000 * 1000).rebuild(2, 120ull * 1000 * 1000);
  cfg.sim.faults.transient_error_rate = 0.002;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 1000 * 1000;
  return cfg;
}

void check_deasna_faults(const RunResult& result) {
  check_digest("deasna_hdf_faults.json", report_json(result));
  // Client requests meet the failure: some queued at the dead device, some
  // read around it.
  EXPECT_GT(result.degraded.degraded_reads, 0u);
  EXPECT_GT(result.faults.requeued_on_failure, 0u);

  ASSERT_NE(result.telemetry, nullptr);
  std::ostringstream trace_os;
  result.telemetry->tracer()->write_chrome_json(trace_os);
  check_digest("deasna_hdf_faults_trace.json", trace_os.str());
  std::ostringstream ts_os;
  result.telemetry->sampler()->write_csv(ts_os);
  check_digest("deasna_hdf_faults_timeseries.csv", ts_os.str());
}

// The forced-midpoint shuffle and a fraction failure both fire once a
// share of the records has been issued.  At fraction 0.5 they fall on the
// same record, and the shuffle plans before the device dies.
ExperimentConfig midpoint_and_fraction_failure_cell() {
  ExperimentConfig cfg = base_cell("home02", core::PolicyKind::kHdf);
  cfg.sim.faults.fail_at_fraction(1, 0.5);
  return cfg;
}

void expect_midpoint_and_failure(const RunResult& result) {
  EXPECT_EQ(result.migration.triggers, 1u);
  EXPECT_EQ(result.degraded.failed_osd, 1);
  EXPECT_GT(result.degraded.degraded_reads, 0u);
}

TEST(Digest, HdfHome02MidpointAndFractionFailure) {
  const RunResult result = run_experiment(midpoint_and_fraction_failure_cell());
  check_digest("home02_hdf_midpoint_fraction_failure.json",
               report_json(result));
  expect_midpoint_and_failure(result);
}

TEST(Digest, OpenLoopHdfFractionFailure) {
  // One Poisson tenant whose OSD 2 fails at 30% of the arrivals: the
  // fraction failure fires from the open-loop issue path.
  ExperimentConfig cfg = base_cell("home02", core::PolicyKind::kHdf);
  workload::TenantSpec home;
  home.profile = "home02";
  home.rate_ops_per_sec = 3000.0;
  cfg.open_loop.tenants = {home};
  cfg.sim.faults.fail_at_fraction(2, 0.3);

  const RunResult result = run_experiment(cfg);
  check_digest("openloop_hdf_fraction_failure.json", report_json(result));
  EXPECT_EQ(result.degraded.failed_osd, 2);
  EXPECT_GT(result.degraded.degraded_reads, 0u);
}

TEST(Digest, HdfLair62GcStream) {
  // Write-skewed trace with the separated GC stream: pins the GC-stream
  // append path that the batched write_range fast path must reproduce.
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kHdf);
  cfg.flash.separate_gc_stream = true;

  const RunResult result = run_experiment(cfg);
  check_digest("lair62_hdf_gc_stream.json", report_json(result));
  std::uint64_t gc_page_moves = 0;
  for (const OsdMetrics& osd : result.per_osd) {
    gc_page_moves += osd.flash.gc_page_moves;
  }
  EXPECT_GT(gc_page_moves, 0u);
}

TEST(Digest, CmtHome02MoverReplansAroundFailedDestination) {
  // Eight OSDs in four groups leave a move no third group member to
  // re-plan onto; sixteen give each group four.  OSD 4 dies on the midpoint shuffle's record: one in-flight move to it
  // is aborted and re-planned, and one queued move to it is re-planned at
  // admission.
  ExperimentConfig cfg = base_cell("home02", core::PolicyKind::kCmt);
  cfg.num_osds = 16;
  cfg.sim.faults.fail_at_fraction(4, 0.5);

  const RunResult result = run_experiment(cfg);
  check_digest("home02_cmt_replan_failed_destination.json",
               report_json(result));
  EXPECT_EQ(result.degraded.failed_osd, 4);
  EXPECT_GT(result.faults.migrations_replanned, 0u);
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
  check_deasna_faults(run_experiment_streaming(deasna_faults_cell()));
}

TEST(Digest, HdfDeasnaFaultsAndTelemetry) {
  check_deasna_faults(run_experiment(deasna_faults_cell()));
}

TEST(Digest, StreamingHdfHome02MidpointAndFractionFailure) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  const RunResult result =
      run_experiment_streaming(midpoint_and_fraction_failure_cell());
  check_digest("home02_hdf_midpoint_fraction_failure.json",
               report_json(result));
  expect_midpoint_and_failure(result);
}

// --- Device-slot digests ---------------------------------------------
//
// The cells above all run flat devices under a closed loop without
// health.  These pin the OSD service path where it differs: a
// parallel-geometry device at depth > 1 (open loop, hedged reads and a
// quarantine drain; hedged reads that run out of retries or meet device
// failures; then faults, retries and rebuild chunks), and a
// parallel-geometry device at depth 1.

flash::FlashConfig nvme_flash() {
  flash::FlashConfig flash;
  flash.geometry = flash::FlashGeometry{8, 4, 2};  // edm_run's "nvme"
  flash.bus_ctrl_us = 2;
  flash.bus_data_us = 10;
  return flash;
}

/// perfbench's openloop-failslow shape (two Poisson tenants at half
/// capacity on nvme OSDs at depth 8, health + mitigation) before any fault
/// is scheduled.  At this scale the monitor flags a device slowed 4x at
/// 1.6 s on its check at 2 s, in time to hedge reads and drain objects.
ExperimentConfig failslow_openloop_cell() {
  ExperimentConfig cfg;
  cfg.scale = 0.08;
  cfg.policy = core::PolicyKind::kNone;
  cfg.sim.trigger = MigrationTrigger::kNone;
  cfg.flash = nvme_flash();
  cfg.sim.osd_queue_depth = 8;
  cfg.sim.health.enabled = true;
  cfg.sim.health.mitigate = true;
  cfg.sim.health.check_interval_us = 500 * 1000;
  workload::TenantSpec home;
  home.profile = "home02";
  home.rate_ops_per_sec = 29400.0;
  workload::TenantSpec lair;
  lair.profile = "lair62";
  lair.rate_ops_per_sec = 15275.0;
  cfg.open_loop.tenants = {home, lair};
  return cfg;
}

constexpr SimTime kSlowOnsetUs = 1600 * 1000;  // 20 s x scale 0.08

TEST(Digest, OpenLoopFailSlowNvmeQd8) {
  // OSD 3 slowed 4x, recovering at 2.4 s.
  ExperimentConfig cfg = failslow_openloop_cell();
  cfg.sim.faults.slow(3, kSlowOnsetUs, 4.0);
  cfg.sim.faults.recover(3, static_cast<SimTime>(30e6 * cfg.scale));

  const RunResult result = run_experiment(cfg);
  check_digest("openloop_failslow_nvme_qd8.json", report_json(result));
  EXPECT_EQ(result.health.flagged_osds, std::vector<std::uint32_t>{3});
  EXPECT_GT(result.health.hedged_reads, 0u);
  EXPECT_GT(result.health.drain_moved, 0u);
}

TEST(Digest, OpenLoopFailSlowHedgedPrimaryExhaustsRetries) {
  // OSD 3 stays slow and every device errs on 10% of its sub-requests,
  // with one retry allowed.  Hedged reads run out of retries on each side
  // of the race: primaries the hedge has not resolved are abandoned and
  // complete their op, primaries the hedge already resolved are absorbed,
  // and lost peer reads stop the hedge from winning.
  ExperimentConfig cfg = failslow_openloop_cell();
  cfg.sim.faults.slow(3, kSlowOnsetUs, 4.0);
  cfg.sim.faults.transient_error_rate = 0.1;
  cfg.sim.retry.max_attempts = 2;

  const RunResult result = run_experiment(cfg);
  check_digest("openloop_failslow_hedge_retries.json", report_json(result));
  EXPECT_EQ(result.health.flagged_osds, std::vector<std::uint32_t>{3});
  EXPECT_GT(result.health.hedged_reads, 0u);
  EXPECT_GT(result.faults.abandoned_requests, 0u);
}

TEST(Digest, OpenLoopFailSlowHedgedReadsMeetFailure) {
  // OSDs 2 and 3 turn slow; the monitor flags OSD 3 and hedges its reads,
  // some of whose peer reads queue on OSD 2.  Both devices die at 2.05 s:
  // hedged primaries drained from OSD 3 (resolved by their hedge or not)
  // and hedged peer reads drained from OSD 2 settle through the degraded
  // path.
  ExperimentConfig cfg = failslow_openloop_cell();
  cfg.sim.faults.slow(2, kSlowOnsetUs, 4.0).slow(3, kSlowOnsetUs, 4.0);
  cfg.sim.faults.fail(2, 2050 * 1000).fail(3, 2050 * 1000);

  const RunResult result = run_experiment(cfg);
  check_digest("openloop_failslow_hedge_failure.json", report_json(result));
  EXPECT_EQ(result.faults.scheduled_failures, 2u);
  EXPECT_GT(result.health.hedged_reads, 0u);
  EXPECT_GT(result.faults.requeued_on_failure, 0u);
}

TEST(Digest, HdfDeasnaFaultsSataQd4) {
  // Device failures, an online rebuild and transient errors on
  // multi-inflight OSDs, all inside the foreground replay (it runs about
  // 0.6 s): retries and abandoned sub-requests complete out of device
  // slots, and the second failure aborts rebuild objects whose peer reads
  // are in service, so their chunks complete stale.
  ExperimentConfig cfg = base_cell("deasna", core::PolicyKind::kHdf);
  cfg.flash.geometry = flash::FlashGeometry{4, 2, 1};  // edm_run's "sata"
  cfg.flash.bus_ctrl_us = 5;
  cfg.flash.bus_data_us = 40;
  cfg.sim.osd_queue_depth = 4;
  cfg.sim.faults.fail(2, 100 * 1000)
      .rebuild(2, 150 * 1000)
      .fail(7, 325 * 1000);
  cfg.sim.faults.transient_error_rate = 0.02;
  cfg.sim.retry.max_attempts = 2;

  const RunResult result = run_experiment(cfg);
  check_digest("deasna_hdf_faults_sata_qd4.json", report_json(result));
  EXPECT_EQ(result.faults.scheduled_failures, 2u);
  EXPECT_GT(result.faults.requeued_on_failure, 0u);
  EXPECT_GT(result.faults.retried_requests, 0u);
  EXPECT_GT(result.faults.abandoned_requests, 0u);
  EXPECT_GT(result.faults.rebuild_objects, 0u);
  EXPECT_GT(result.faults.rebuild_aborted, 0u);
}

TEST(Digest, HdfHome02NvmeQd1) {
  // A parallel-geometry device served one request at a time.
  ExperimentConfig cfg = base_cell("home02", core::PolicyKind::kHdf);
  cfg.flash = nvme_flash();
  cfg.sim.osd_queue_depth = 1;
  check_digest("home02_hdf_nvme_qd1.json", report_json(run_experiment(cfg)));
}

}  // namespace
}  // namespace edm::sim
