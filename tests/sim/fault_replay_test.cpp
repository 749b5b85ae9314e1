// DES-level fault replay: scheduled failures as first-class events, online
// rebuild through the OSD queues, transient-error retry/backoff, and the
// failure-aware data mover (mid-flight abort + re-plan).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "core/policy.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/record.h"

namespace edm::sim {
namespace {

/// Trace-replay rig (home02 sample) with a pluggable fault plan.
struct ReplayRig {
  ReplayRig() {
    profile = trace::profile_by_name("home02").scaled(0.01);
    trace = trace::TraceGenerator(profile, 4).generate();
    cluster::ClusterConfig ccfg;
    ccfg.num_osds = 8;
    ccfg.flash.num_blocks = 64;
    ccfg.flash.pages_per_block = 16;
    cluster = std::make_unique<cluster::Cluster>(ccfg, trace.files);
    cluster->populate();
    cluster->steady_state_warmup();
    cluster->reset_flash_stats();
  }

  RunResult run(FaultPlan plan = {}, RetryPolicy retry = {}) {
    SimConfig cfg;
    cfg.num_clients = 4;
    cfg.trigger = MigrationTrigger::kNone;
    cfg.faults = std::move(plan);
    cfg.retry = retry;
    Simulator sim(cfg, *cluster, trace, nullptr);
    return sim.run();
  }

  trace::WorkloadProfile profile;
  trace::Trace trace;
  std::unique_ptr<cluster::Cluster> cluster;
};

/// Makespan of a healthy replay; used to aim fault times mid-trace.
SimTime healthy_makespan() {
  ReplayRig probe;
  return probe.run().makespan_us;
}

TEST(FaultReplay, SameSeedRunsAreBitIdentical) {
  const SimTime mk = healthy_makespan();
  FaultPlan plan;
  plan.fail(1, mk / 3).rebuild(1, mk / 2);
  plan.transient_error_rate = 0.01;
  plan.seed = 7;

  ReplayRig a;
  ReplayRig b;
  const auto ra = a.run(plan);
  const auto rb = b.run(plan);

  EXPECT_EQ(ra.completed_ops, rb.completed_ops);
  EXPECT_EQ(ra.makespan_us, rb.makespan_us);
  EXPECT_EQ(ra.aggregate_erases(), rb.aggregate_erases());
  EXPECT_EQ(ra.mean_response_us, rb.mean_response_us);
  EXPECT_EQ(ra.faults.transient_errors, rb.faults.transient_errors);
  EXPECT_EQ(ra.faults.retried_requests, rb.faults.retried_requests);
  EXPECT_EQ(ra.faults.abandoned_requests, rb.faults.abandoned_requests);
  EXPECT_EQ(ra.faults.requeued_on_failure, rb.faults.requeued_on_failure);
  EXPECT_EQ(ra.faults.rebuild_objects, rb.faults.rebuild_objects);
  EXPECT_EQ(ra.faults.rebuild_pages_written, rb.faults.rebuild_pages_written);
  EXPECT_EQ(ra.faults.rebuild_started_at, rb.faults.rebuild_started_at);
  EXPECT_EQ(ra.faults.rebuild_finished_at, rb.faults.rebuild_finished_at);
  EXPECT_EQ(ra.degraded.degraded_reads, rb.degraded.degraded_reads);
  EXPECT_EQ(ra.degraded.lost_writes, rb.degraded.lost_writes);
}

TEST(FaultReplay, OnlineRebuildRestoresTheDevice) {
  const SimTime mk = healthy_makespan();
  ReplayRig rig;
  FaultPlan plan;
  plan.fail(2, 2 * mk / 5).rebuild(2, mk / 2);
  const auto r = rig.run(plan);

  // Zero foreground requests silently dropped.
  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_EQ(r.faults.scheduled_failures, 1u);
  EXPECT_EQ(r.degraded.failed_osd, 2);

  // The rebuild ran through the event loop and completed.
  EXPECT_GT(r.faults.rebuild_started_at, 0u);
  EXPECT_GT(r.faults.rebuild_finished_at, r.faults.rebuild_started_at);
  EXPECT_GT(r.faults.rebuild_objects, 0u);
  EXPECT_GT(r.faults.rebuild_pages_written, 0u);
  EXPECT_GT(r.faults.rebuild_peer_pages_read, 0u);
  // Single failure: every victim is reconstructable.
  EXPECT_EQ(r.faults.rebuild_unrecoverable, 0u);
  EXPECT_EQ(r.degraded.unavailable, 0u);

  // The device is back in service, empty and healthy.
  EXPECT_FALSE(rig.cluster->osd_failed(2));
  EXPECT_EQ(rig.cluster->osd(2).store().object_count(), 0u);
}

TEST(FaultReplay, OnlineRebuildMatchesInstantRebuild) {
  const SimTime mk = healthy_makespan();
  const OsdId dead = 1;

  ReplayRig online;
  FaultPlan online_plan;
  online_plan.fail(dead, mk / 3).rebuild(dead, mk / 2);
  const auto r = online.run(online_plan);

  ReplayRig instant;
  FaultPlan fail_only;
  fail_only.fail(dead, mk / 3);
  instant.run(fail_only);
  const std::vector<ObjectId> victims = instant.cluster->failed_objects(dead);
  const auto stats = instant.cluster->rebuild_osd(dead);

  // Same victims reconstructed, same totals, byte for byte.
  EXPECT_EQ(r.faults.rebuild_objects, stats.objects);
  EXPECT_EQ(r.faults.rebuild_unrecoverable, stats.unrecoverable);
  EXPECT_EQ(r.faults.rebuild_unplaced, stats.unplaced);
  EXPECT_EQ(r.faults.rebuild_pages_written, stats.pages_written);
  EXPECT_EQ(r.faults.rebuild_peer_pages_read, stats.peer_pages_read);
  EXPECT_GT(stats.objects, 0u);

  // Both paths prepare victims in the same sorted order, so every object
  // must land on the same destination.
  for (const ObjectId oid : victims) {
    EXPECT_EQ(online.cluster->locate(oid), instant.cluster->locate(oid))
        << "oid " << oid;
  }
}

TEST(FaultReplay, DoubleFailureUnrecoverableMatchesInstant) {
  const SimTime mk = healthy_makespan();
  // OSDs 1 and 2 sit in different groups (8 OSDs / 4 groups), so stripes
  // spanning both lose two members and become unrecoverable.
  ReplayRig online;
  FaultPlan online_plan;
  online_plan.fail(1, mk / 3).fail(2, mk / 3).rebuild(1, mk / 2);
  const auto r = online.run(online_plan);

  ReplayRig instant;
  FaultPlan fail_only;
  fail_only.fail(1, mk / 3).fail(2, mk / 3);
  instant.run(fail_only);
  const auto stats = instant.cluster->rebuild_osd(1);

  EXPECT_GT(r.faults.rebuild_unrecoverable, 0u);
  EXPECT_EQ(r.faults.rebuild_objects, stats.objects);
  EXPECT_EQ(r.faults.rebuild_unrecoverable, stats.unrecoverable);
  EXPECT_EQ(r.faults.rebuild_unplaced, stats.unplaced);

  EXPECT_FALSE(online.cluster->osd_failed(1));
  EXPECT_TRUE(online.cluster->osd_failed(2));
  // Requests needing both dead devices were counted, not dropped.
  EXPECT_EQ(r.completed_ops, online.trace.records.size());
}

TEST(FaultReplay, SequentialRebuildsRestoreBothDevices) {
  const SimTime mk = healthy_makespan();
  ReplayRig rig;
  FaultPlan plan;
  plan.fail(1, mk / 4)
      .fail(2, mk / 4)
      .rebuild(1, mk / 2)
      .rebuild(2, mk / 2 + 1);  // queues behind the running rebuild
  const auto r = rig.run(plan);

  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_EQ(r.faults.scheduled_failures, 2u);
  EXPECT_FALSE(rig.cluster->osd_failed(1));
  EXPECT_FALSE(rig.cluster->osd_failed(2));
  EXPECT_EQ(rig.cluster->osd(1).store().object_count(), 0u);
  EXPECT_EQ(rig.cluster->osd(2).store().object_count(), 0u);
}

TEST(FaultReplay, TransientErrorsAllAccountedFor) {
  ReplayRig rig;
  FaultPlan plan;
  plan.transient_error_rate = 0.02;
  plan.seed = 99;
  const auto r = rig.run(plan);

  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_GT(r.faults.transient_errors, 0u);
  // No mover or rebuild traffic here, so every injected error either
  // retried or abandoned a client sub-request -- none vanish.
  EXPECT_EQ(r.faults.transient_errors,
            r.faults.retried_requests + r.faults.abandoned_requests);
}

TEST(FaultReplay, ExhaustedClientRetriesAreAbandonedNotHung) {
  ReplayRig rig;
  FaultPlan plan;
  plan.transient_error_rate = 0.0;
  plan.per_osd_error_rates = {0.0, 0.0, 0.0, 1.0};  // OSD 3 always errors
  RetryPolicy retry;
  retry.max_attempts = 4;
  const auto r = rig.run(plan, retry);

  // Every sub-request on OSD 3 burns all four attempts, is abandoned, and
  // its file operation still completes -- the replay never hangs.
  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_GT(r.faults.abandoned_requests, 0u);
  EXPECT_EQ(r.faults.retried_requests, 3 * r.faults.abandoned_requests);
  EXPECT_EQ(r.faults.transient_errors,
            r.faults.retried_requests + r.faults.abandoned_requests);
}

/// Plans a fixed move once (see mover_test); used to pin a migration
/// mid-flight when its destination dies.
class ScriptedPolicy final : public core::MigrationPolicy {
 public:
  explicit ScriptedPolicy(core::MigrationPlan plan, bool blocking = false)
      : core::MigrationPolicy(core::PolicyConfig{}),
        plan_(std::move(plan)),
        blocking_(blocking) {}

  const char* name() const override { return "scripted"; }
  bool blocks_foreground() const override { return blocking_; }
  core::MigrationPlan plan(const core::ClusterView&, bool) override {
    core::MigrationPlan out;
    if (!fired_) {
      out = plan_;
      fired_ = true;
    }
    return out;
  }

 private:
  core::MigrationPlan plan_;
  bool fired_ = false;
  bool blocking_ = false;
};

TEST(FaultReplay, MidFlightMigrationRetargetsOnDestinationDeath) {
  // Groups of four (8 OSDs / 2 groups, k = 2) so a dead destination still
  // leaves healthy peers to re-plan onto.
  cluster::ClusterConfig ccfg;
  ccfg.num_osds = 8;
  ccfg.num_groups = 2;
  ccfg.objects_per_file = 2;
  // Dynamic capacity sizing parks every device near the target, so one
  // whole-object move needs a low target to stay under the destination
  // cap.
  ccfg.target_max_utilization = 0.6;
  ccfg.flash.num_blocks = 256;
  ccfg.flash.pages_per_block = 16;
  std::vector<trace::FileSpec> files;
  for (FileId f = 0; f < 16; ++f) files.push_back({f, 128 * 1024});
  cluster::Cluster cluster(ccfg, files);
  cluster.populate();

  trace::Trace trace;
  trace.name = "scripted";
  trace.files = files;
  for (int i = 0; i < 4000; ++i) {
    trace.records.push_back({static_cast<FileId>(i % 16),
                             static_cast<std::uint64_t>((i * 4096) % (64 * 1024)),
                             4096, trace::OpType::kRead,
                             static_cast<std::uint16_t>(i % 4)});
  }

  // Script one move and schedule the destination's death mid-copy: the
  // copy takes ~2.6 s at 0.05 MB/s while the replay (and thus the midpoint
  // trigger) finishes within the first second.
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  const OsdId first_dst = cluster.placement().group_peers(src).front();
  core::MigrationPlan plan;
  plan.actions.push_back({oid, src, first_dst, cluster.object_pages(oid)});
  ScriptedPolicy policy(plan);

  SimConfig cfg;
  cfg.num_clients = 4;
  cfg.trigger = MigrationTrigger::kForcedMidpoint;
  cfg.mover_lane_mbps = 0.05;
  cfg.faults.fail(first_dst, 1'500'000);
  Simulator sim(cfg, cluster, trace, &policy);
  const auto r = sim.run();

  // The failure really hit mid-copy...
  ASSERT_LT(r.migration.started_at, 1'500'000u);
  ASSERT_GT(r.migration.finished_at, 1'500'000u);
  EXPECT_EQ(r.faults.migrations_aborted, 1u);
  // ...and the move was re-planned to a healthy peer and completed there.
  EXPECT_EQ(r.faults.migrations_replanned, 1u);
  EXPECT_EQ(r.migration.moved_objects, 1u);
  const OsdId final_home = cluster.locate(oid);
  EXPECT_NE(final_home, first_dst);
  EXPECT_NE(final_home, src);
  EXPECT_FALSE(cluster.osd_failed(final_home));
  EXPECT_FALSE(cluster.migration_in_flight(oid));
  EXPECT_EQ(r.completed_ops, trace.records.size());
}

TEST(FaultReplay, DegradedReadRacesMidFlightMigrationOfSameObject) {
  // Same rig as the retarget test, but the *source* dies mid-copy: reads
  // of the migrating object that parked behind the move must release into
  // the degraded-read path (the object's home is now a dead device), the
  // move itself must abort without a re-plan (its source is gone), and no
  // request may hang or go unavailable.
  cluster::ClusterConfig ccfg;
  ccfg.num_osds = 8;
  ccfg.num_groups = 2;
  ccfg.objects_per_file = 2;
  ccfg.target_max_utilization = 0.6;
  ccfg.flash.num_blocks = 256;
  ccfg.flash.pages_per_block = 16;
  std::vector<trace::FileSpec> files;
  for (FileId f = 0; f < 16; ++f) files.push_back({f, 128 * 1024});
  cluster::Cluster cluster(ccfg, files);
  cluster.populate();

  trace::Trace trace;
  trace.name = "scripted";
  trace.files = files;
  // Unlike the retarget test the policy runs in blocking mode and the
  // offset stride (7 units, coprime with the 2-object rotation) makes
  // every client hit odd stripes of file 2 -- i.e. the migrating object
  // -- so reads park behind the in-flight move and stall their
  // closed-loop clients, keeping the replay alive past the 0.6 s source
  // failure; the abort must release them into the degraded-read path.
  for (int i = 0; i < 12000; ++i) {
    trace.records.push_back({static_cast<FileId>((i / 4) % 16),
                             static_cast<std::uint64_t>(((i * 7) % 32) * 4096),
                             4096, trace::OpType::kRead,
                             static_cast<std::uint16_t>(i % 4)});
  }

  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  const OsdId dst = cluster.placement().group_peers(src).front();
  core::MigrationPlan plan;
  plan.actions.push_back({oid, src, dst, cluster.object_pages(oid)});
  ScriptedPolicy policy(plan, /*blocking=*/true);

  SimConfig cfg;
  cfg.num_clients = 4;
  cfg.trigger = MigrationTrigger::kForcedMidpoint;
  cfg.mover_lane_mbps = 0.05;  // ~2.6 s copy; the source dies at 0.6 s
  cfg.faults.fail(src, 600'000);
  Simulator sim(cfg, cluster, trace, &policy);
  const auto r = sim.run();

  ASSERT_LT(r.migration.started_at, 600'000u);
  EXPECT_EQ(r.faults.migrations_aborted, 1u);
  EXPECT_EQ(r.faults.migrations_replanned, 0u);  // dead source: no re-plan
  EXPECT_EQ(r.migration.moved_objects, 0u);
  EXPECT_FALSE(cluster.migration_in_flight(oid));
  EXPECT_EQ(cluster.locate(oid), src);  // still homed on the dead device

  // Every operation completed; reads of the dead device reconstructed.
  EXPECT_EQ(r.completed_ops, trace.records.size());
  EXPECT_GT(r.degraded.degraded_reads, 0u);
  EXPECT_EQ(r.degraded.unavailable, 0u);
}

/// Every object's locate() must equal its remapping-table entry if it has
/// one and its hash-placement home if not: the dense table the request
/// path reads and the Fig. 8 table must never disagree.
void expect_locate_matches_remap(const cluster::Cluster& cluster) {
  std::vector<std::optional<OsdId>> remapped(cluster.object_count());
  cluster.remap().for_each(
      [&](ObjectId oid, OsdId osd) { remapped[oid] = osd; });
  const cluster::Placement& p = cluster.placement();
  for (ObjectId oid = 0; oid < cluster.object_count(); ++oid) {
    const OsdId home = p.default_osd(p.file_of(oid), p.index_of(oid));
    ASSERT_EQ(cluster.locate(oid), remapped[oid].value_or(home))
        << "oid " << oid;
  }
}

TEST(FaultReplay, LocateAgreesWithRemapTableAfterMovesAndRebuild) {
  // home02 CMT on 16 OSDs in four groups, as in
  // Digest.CmtHome02MoverReplansAroundFailedDestination: OSD 4 dies on the
  // midpoint shuffle's record, which aborts the move in flight to it and
  // re-plans moves around it.  Its online rebuild starts at 2 s, while the
  // mover is still copying, and commits its objects to group peers.
  const trace::Trace trace =
      trace::TraceGenerator(trace::profile_by_name("home02").scaled(0.01), 8)
          .generate();
  cluster::ClusterConfig ccfg;
  ccfg.num_osds = 16;
  cluster::Cluster cluster(ccfg, trace.files);
  cluster.populate();
  cluster.steady_state_warmup();
  cluster.reset_flash_stats();
  auto policy =
      core::make_policy(core::PolicyKind::kCmt, core::PolicyConfig{});

  SimConfig cfg;
  cfg.num_clients = 8;
  cfg.faults.fail_at_fraction(4, 0.5).rebuild(4, 2'000'000);
  const RunResult r = Simulator(cfg, cluster, trace, policy.get()).run();

  EXPECT_GT(r.migration.moved_objects, 0u);
  EXPECT_GT(r.faults.migrations_aborted, 0u);
  EXPECT_GT(r.faults.rebuild_objects, 0u);
  EXPECT_LT(r.faults.rebuild_started_at, r.migration.finished_at);
  EXPECT_GT(cluster.remap().size(), r.migration.moved_objects);
  expect_locate_matches_remap(cluster);
}

}  // namespace
}  // namespace edm::sim
