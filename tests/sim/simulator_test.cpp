#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "core/hdf_policy.h"
#include "trace/cursor.h"
#include "trace/generator.h"
#include "trace/profile.h"

namespace edm::sim {
namespace {

struct Harness {
  explicit Harness(double scale = 0.005, std::uint32_t osds = 8)
      : profile(trace::profile_by_name("home02").scaled(scale)),
        trace(trace::TraceGenerator(profile, 4).generate()) {
    cluster::ClusterConfig ccfg;
    ccfg.num_osds = osds;
    ccfg.num_groups = 4;
    ccfg.objects_per_file = 4;
    ccfg.flash.num_blocks = 64;
    ccfg.flash.pages_per_block = 16;
    cluster = std::make_unique<cluster::Cluster>(ccfg, trace.files);
    cluster->populate();
    cluster->steady_state_warmup();
    cluster->reset_flash_stats();
  }

  SimConfig sim_config() const {
    SimConfig cfg;
    cfg.num_clients = 4;
    cfg.response_window_us = 1000 * 1000;
    return cfg;
  }

  trace::WorkloadProfile profile;
  trace::Trace trace;
  std::unique_ptr<cluster::Cluster> cluster;
};

TEST(Simulator, BaselineCompletesEveryRecord) {
  Harness h;
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  Simulator sim(cfg, *h.cluster, h.trace, nullptr);
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed_ops, h.trace.records.size());
  EXPECT_GT(r.makespan_us, 0u);
  EXPECT_GT(r.throughput_ops_per_sec(), 0.0);
  EXPECT_EQ(r.migration.moved_objects, 0u);
  EXPECT_EQ(r.policy_name, "baseline");
}

// The Harness trace tags 4 clients; with 7 replay clients lanes 4-6 are
// empty.  Their first fill finds them exhausted, and the replay still
// completes every record (and ends: an empty lane that never counted as
// done would trip the deadlock check).
TEST(Simulator, MaterialisedReplayWithEmptyLanesCompletesEveryRecord) {
  Harness h;
  SimConfig cfg = h.sim_config();
  cfg.num_clients = 7;
  cfg.trigger = MigrationTrigger::kNone;
  const RunResult r = Simulator(cfg, *h.cluster, h.trace, nullptr).run();
  EXPECT_EQ(r.completed_ops, h.trace.records.size());
}

// A fraction failure fires from fill_client_window's progress hook and
// resolves the dead device's queued requests there.  A streaming replay and
// an in-place one of the same trace stay identical across it.
TEST(Simulator, StreamingMatchesMaterialisedAcrossLegacyFailure) {
  Harness h1;
  Harness h2;
  SimConfig cfg = h1.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  cfg.faults.fail_at_fraction(1, 0.5);
  const RunResult a = Simulator(cfg, *h1.cluster, h1.trace, nullptr).run();
  trace::TraceCursor cursor(h2.profile, cfg.num_clients);
  const RunResult b = Simulator(cfg, *h2.cluster, cursor, nullptr).run();
  EXPECT_EQ(a.completed_ops, h1.trace.records.size());
  EXPECT_GT(a.degraded.lost_writes + a.degraded.degraded_reads, 0u);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.mean_response_us, b.mean_response_us);
  EXPECT_EQ(a.degraded.lost_writes, b.degraded.lost_writes);
  EXPECT_EQ(a.degraded.degraded_reads, b.degraded.degraded_reads);
  EXPECT_EQ(a.aggregate_erases(), b.aggregate_erases());
}

TEST(Simulator, DeterministicAcrossRuns) {
  Harness h1;
  Harness h2;
  SimConfig cfg = h1.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  const RunResult a = Simulator(cfg, *h1.cluster, h1.trace, nullptr).run();
  const RunResult b = Simulator(cfg, *h2.cluster, h2.trace, nullptr).run();
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.aggregate_erases(), b.aggregate_erases());
  EXPECT_EQ(a.mean_response_us, b.mean_response_us);
}

TEST(Simulator, RunTwiceThrows) {
  Harness h;
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  Simulator sim(cfg, *h.cluster, h.trace, nullptr);
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, ResponseTimelineCoversMakespan) {
  Harness h;
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  const RunResult r = Simulator(cfg, *h.cluster, h.trace, nullptr).run();
  ASSERT_FALSE(r.response_timeline.empty());
  std::uint64_t windowed_ops = 0;
  for (const auto& w : r.response_timeline) windowed_ops += w.completed_ops;
  EXPECT_EQ(windowed_ops, r.completed_ops);
  // Last window must contain the makespan.
  EXPECT_GE(r.response_timeline.back().window_start + cfg.response_window_us,
            r.makespan_us);
}

TEST(Simulator, PerOsdStatsMatchClusterState) {
  Harness h;
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  const RunResult r = Simulator(cfg, *h.cluster, h.trace, nullptr).run();
  ASSERT_EQ(r.per_osd.size(), h.cluster->num_osds());
  for (OsdId i = 0; i < h.cluster->num_osds(); ++i) {
    EXPECT_EQ(r.per_osd[i].flash.erase_count,
              h.cluster->osd(i).flash_stats().erase_count);
  }
  EXPECT_EQ(r.aggregate_erases(), h.cluster->total_erase_count());
}

TEST(Simulator, MidpointMigrationMovesObjectsWithHdf) {
  Harness h(0.02);
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kForcedMidpoint;
  core::PolicyConfig pcfg;
  pcfg.model = core::WearModel(16, 0.28);  // match the 16-page blocks
  core::HdfPolicy policy(pcfg);
  const RunResult r = Simulator(cfg, *h.cluster, h.trace, &policy).run();
  EXPECT_EQ(r.completed_ops, h.trace.records.size());
  EXPECT_GT(r.migration.moved_objects, 0u);
  EXPECT_EQ(r.migration.moved_objects + r.migration.skipped_objects,
            r.migration.planned_objects);
  EXPECT_EQ(r.migration.remap_table_size, h.cluster->remap().size());
  EXPECT_GE(r.migration.finished_at, r.migration.started_at);
  EXPECT_EQ(h.cluster->migrations_completed(), r.migration.moved_objects);
}

TEST(Simulator, MigratedObjectsLandInSameGroup) {
  Harness h(0.02);
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kForcedMidpoint;
  core::PolicyConfig pcfg;
  pcfg.model = core::WearModel(16, 0.28);
  core::HdfPolicy policy(pcfg);
  Simulator(cfg, *h.cluster, h.trace, &policy).run();
  h.cluster->remap().for_each([&](ObjectId oid, OsdId osd) {
    const auto& p = h.cluster->placement();
    const OsdId home = p.default_osd(p.file_of(oid), p.index_of(oid));
    EXPECT_TRUE(p.same_group(home, osd)) << "oid " << oid;
  });
}

TEST(Simulator, MonitorModeTriggersOnItsOwn) {
  Harness h(0.02);
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kMonitor;
  cfg.epoch_length_us = 100 * 1000;  // tick often at this tiny scale
  cfg.monitor_cooldown_epochs = 2;
  core::PolicyConfig pcfg;
  pcfg.model = core::WearModel(16, 0.28);
  pcfg.lambda = 0.05;  // low bar so the tiny run triggers
  core::HdfPolicy policy(pcfg);
  const RunResult r = Simulator(cfg, *h.cluster, h.trace, &policy).run();
  EXPECT_EQ(r.completed_ops, h.trace.records.size());
  EXPECT_GT(r.migration.triggers, 0u);
}

TEST(Simulator, BuildViewMatchesClusterState) {
  Harness h;
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kNone;
  Simulator sim(cfg, *h.cluster, h.trace, nullptr);
  const auto view = sim.build_view();
  ASSERT_EQ(view.devices.size(), h.cluster->num_osds());
  for (OsdId i = 0; i < h.cluster->num_osds(); ++i) {
    EXPECT_EQ(view.devices[i].id, i);
    EXPECT_DOUBLE_EQ(view.devices[i].utilization,
                     h.cluster->osd(i).utilization());
    EXPECT_EQ(view.devices[i].capacity_pages,
              h.cluster->osd(i).capacity_pages());
    EXPECT_EQ(view.objects[i].size(),
              h.cluster->osd(i).store().object_count());
  }
}

TEST(Simulator, RejectsBadConfig) {
  Harness h;
  // Each bad knob is rejected with a message naming it.  Zero queue
  // depth, epoch or response window would otherwise hang the replay; a
  // negative mover rate would be cast to an unsigned duration.
  const std::pair<void (*)(SimConfig&), const char*> cases[] = {
      {[](SimConfig& c) { c.num_clients = 0; }, "num_clients"},
      {[](SimConfig& c) { c.client_queue_depth = 0; }, "client_queue_depth"},
      {[](SimConfig& c) { c.epoch_length_us = 0; }, "epoch_length_us"},
      {[](SimConfig& c) { c.response_window_us = 0; }, "response_window_us"},
      {[](SimConfig& c) { c.mover_lane_mbps = -1.0; }, "mover_lane_mbps"},
  };
  for (const auto& [mutate, field] : cases) {
    SimConfig cfg = h.sim_config();
    mutate(cfg);
    try {
      Simulator(cfg, *h.cluster, h.trace, nullptr);
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(Simulator, RejectsCursorWithOtherLaneCount) {
  // Fewer cursor lanes than clients would read past the lane buffers; more
  // would strand the extra lanes' records and end the replay early.
  Harness h;
  const SimConfig cfg = h.sim_config();  // 4 clients
  for (const std::uint16_t lanes : {2, 8}) {
    trace::TraceCursor cursor(h.profile, lanes);
    try {
      Simulator(cfg, *h.cluster, cursor, nullptr);
      ADD_FAILURE() << lanes << "-lane cursor was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(lanes) + " lanes"), std::string::npos)
          << what;
      EXPECT_NE(what.find("num_clients is 4"), std::string::npos) << what;
    }
  }
}

TEST(Simulator, DeeperClientQueueRaisesThroughput) {
  Harness h1(0.01);
  Harness h2(0.01);
  SimConfig shallow = h1.sim_config();
  shallow.trigger = MigrationTrigger::kNone;
  shallow.client_queue_depth = 1;
  SimConfig deep = shallow;
  deep.client_queue_depth = 8;
  const RunResult a = Simulator(shallow, *h1.cluster, h1.trace, nullptr).run();
  const RunResult b = Simulator(deep, *h2.cluster, h2.trace, nullptr).run();
  EXPECT_GT(b.throughput_ops_per_sec(), a.throughput_ops_per_sec());
}


TEST(Simulator, AdaptiveSigmaLearnsFromObservations) {
  Harness h(0.02);
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kMonitor;
  cfg.epoch_length_us = 100 * 1000;
  cfg.monitor_cooldown_epochs = 2;
  cfg.adaptive_sigma = true;
  core::PolicyConfig pcfg;
  pcfg.model = core::WearModel(16, 0.28);
  pcfg.lambda = 0.05;
  core::HdfPolicy policy(pcfg);
  Simulator sim(cfg, *h.cluster, h.trace, &policy);
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed_ops, h.trace.records.size());
  // The estimator saw real data and produced an in-range sigma that was
  // installed into the policy before planning.
  const double sigma = sim.current_sigma();
  EXPECT_GE(sigma, 0.0);
  EXPECT_LE(sigma, 0.6);
  EXPECT_NE(policy.config().model.sigma(), 0.28);  // refit happened
  // current_sigma() reports the installed model, not a fresh fit over the
  // epochs observed since the last plan.
  EXPECT_EQ(sigma, policy.config().model.sigma());
}

TEST(Simulator, AdaptiveSigmaOffLeavesModelUntouched) {
  Harness h(0.01);
  SimConfig cfg = h.sim_config();
  cfg.trigger = MigrationTrigger::kForcedMidpoint;
  core::PolicyConfig pcfg;
  pcfg.model = core::WearModel(16, 0.28);
  core::HdfPolicy policy(pcfg);
  Simulator(cfg, *h.cluster, h.trace, &policy).run();
  EXPECT_DOUBLE_EQ(policy.config().model.sigma(), 0.28);
}

}  // namespace
}  // namespace edm::sim
