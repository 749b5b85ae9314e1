// Fail-slow replay integration: injected slowdowns degrade service
// deterministically, the online health monitor finds the sick device with
// no oracle access (and no false positives), and the mitigations -- hedged
// RAID-5 reads plus quarantine-and-drain -- demonstrably pull the tail
// back in.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "cluster/cluster.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/profile.h"

namespace edm::sim {
namespace {

/// Trace-replay rig (home02 sample) with pluggable fault/health config.
/// Larger than the fault_replay rig so every device clears the monitor's
/// min_samples gate well before the first slowdown.
struct HealthRig {
  HealthRig() {
    profile = trace::profile_by_name("home02").scaled(0.02);
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

  RunResult run(FaultPlan plan = {}, bool health = false,
                bool mitigate = false) {
    SimConfig cfg;
    cfg.num_clients = 4;
    cfg.trigger = MigrationTrigger::kNone;
    cfg.faults = std::move(plan);
    cfg.health.enabled = health || mitigate;
    cfg.health.mitigate = mitigate;
    cfg.health.check_interval_us = 100 * 1000;
    cfg.health.min_samples = 16;
    Simulator sim(cfg, *cluster, trace, nullptr);
    return sim.run();
  }

  trace::WorkloadProfile profile;
  trace::Trace trace;
  std::unique_ptr<cluster::Cluster> cluster;
};

/// Makespan of a healthy replay; used to aim the slowdown mid-trace.
SimTime healthy_makespan() {
  HealthRig probe;
  return probe.run().makespan_us;
}

/// A persistent factor-8 slowdown with intermittent 2 ms stalls on OSD 3,
/// starting at one fifth of the healthy makespan.
FaultPlan slow_plan(SimTime mk) {
  FaultPlan plan;
  plan.slow(3, mk / 5, 8.0, 0.05, 2000);
  return plan;
}

TEST(FailSlow, SameSeedMitigatedRunsAreBitIdentical) {
  const SimTime mk = healthy_makespan();
  HealthRig a;
  HealthRig b;
  const auto ra = a.run(slow_plan(mk), true, true);
  const auto rb = b.run(slow_plan(mk), true, true);

  EXPECT_EQ(ra.completed_ops, rb.completed_ops);
  EXPECT_EQ(ra.makespan_us, rb.makespan_us);
  EXPECT_EQ(ra.mean_response_us, rb.mean_response_us);
  EXPECT_EQ(ra.faults.slowdown_events, rb.faults.slowdown_events);
  EXPECT_EQ(ra.faults.stalls_injected, rb.faults.stalls_injected);
  EXPECT_EQ(ra.health.checks, rb.health.checks);
  EXPECT_EQ(ra.health.flag_events, rb.health.flag_events);
  EXPECT_EQ(ra.health.flagged_osds, rb.health.flagged_osds);
  EXPECT_EQ(ra.health.first_flagged_at, rb.health.first_flagged_at);
  EXPECT_EQ(ra.health.hedged_reads, rb.health.hedged_reads);
  EXPECT_EQ(ra.health.hedge_wins, rb.health.hedge_wins);
  EXPECT_EQ(ra.health.drain_planned, rb.health.drain_planned);
  EXPECT_EQ(ra.health.drain_moved, rb.health.drain_moved);
}

TEST(FailSlow, SlowdownDegradesTheReplay) {
  const SimTime mk = healthy_makespan();
  HealthRig rig;
  const auto r = rig.run(slow_plan(mk));

  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_EQ(r.faults.slowdown_events, 1u);
  EXPECT_EQ(r.faults.recover_events, 0u);
  EXPECT_GT(r.faults.stalls_injected, 0u);
  EXPECT_GT(r.makespan_us, mk);  // the damage is visible end to end
}

TEST(FailSlow, MonitorFlagsTheInjectedOsdAndNothingElse) {
  const SimTime mk = healthy_makespan();
  HealthRig rig;
  const auto r = rig.run(slow_plan(mk), /*health=*/true);

  ASSERT_EQ(r.health.flagged_osds, std::vector<std::uint32_t>{3});
  EXPECT_TRUE(r.health.enabled);
  EXPECT_FALSE(r.health.mitigated);
  EXPECT_GT(r.health.checks, 0u);
  EXPECT_GE(r.health.flag_events, 1u);
  // Detection happened after the onset -- the monitor has no oracle.
  EXPECT_GT(r.health.first_flagged_at, mk / 5);
  // Detection only: nothing acted on the flag.
  EXPECT_EQ(r.health.hedged_reads, 0u);
  EXPECT_EQ(r.health.drain_planned, 0u);
  EXPECT_EQ(r.health.quarantined_at_end, 0u);
}

TEST(FailSlow, CleanRunFlagsNothing) {
  HealthRig rig;
  const auto r = rig.run({}, /*health=*/true);
  EXPECT_GT(r.health.checks, 0u);
  EXPECT_EQ(r.health.flag_events, 0u);
  EXPECT_TRUE(r.health.flagged_osds.empty());
  EXPECT_EQ(r.health.first_flagged_at, 0u);
}

TEST(FailSlow, DetectionAloneChangesNoForegroundBehaviour) {
  // The monitor only observes; until mitigate is set, a watched replay
  // must be indistinguishable from an unwatched one.
  const SimTime mk = healthy_makespan();
  HealthRig watched;
  HealthRig unwatched;
  const auto rw = watched.run(slow_plan(mk), /*health=*/true);
  const auto ru = unwatched.run(slow_plan(mk), /*health=*/false);

  EXPECT_EQ(rw.completed_ops, ru.completed_ops);
  EXPECT_EQ(rw.makespan_us, ru.makespan_us);
  EXPECT_EQ(rw.mean_response_us, ru.mean_response_us);
  EXPECT_EQ(rw.faults.stalls_injected, ru.faults.stalls_injected);
  EXPECT_EQ(rw.aggregate_erases(), ru.aggregate_erases());
}

TEST(FailSlow, HedgedReadsReconstructAroundTheSickDevice) {
  const SimTime mk = healthy_makespan();
  HealthRig rig;
  const auto r = rig.run(slow_plan(mk), true, /*mitigate=*/true);

  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_TRUE(r.health.mitigated);
  EXPECT_GT(r.health.hedged_reads, 0u);
  EXPECT_GT(r.health.hedge_wins, 0u);
  // Every fired hedge resolves exactly one way.
  EXPECT_EQ(r.health.hedge_wins + r.health.hedge_redundant,
            r.health.hedged_reads);
  // Hedge wins are served by RAID-5 reconstruction off the peers.
  EXPECT_GE(r.degraded.degraded_reads, r.health.hedge_wins);
}

TEST(FailSlow, QuarantineAndDrainMoveObjectsOffTheSickDevice) {
  const SimTime mk = healthy_makespan();
  HealthRig rig;
  const auto before = rig.cluster->osd(3).store().object_count();
  const auto r = rig.run(slow_plan(mk), true, /*mitigate=*/true);

  EXPECT_GE(r.health.drain_triggers, 1u);
  EXPECT_GT(r.health.drain_moved, 0u);
  EXPECT_GE(r.health.drain_planned, r.health.drain_moved);
  EXPECT_LT(rig.cluster->osd(3).store().object_count(), before);
  // No recovery in the plan: the device is still quarantined at the end.
  EXPECT_EQ(r.health.quarantined_at_end, 1u);
  EXPECT_TRUE(rig.cluster->osd_quarantined(3));
  EXPECT_FALSE(rig.cluster->osd_failed(3));  // sick, not dead
}

TEST(FailSlow, MitigationImprovesTheTail) {
  const SimTime mk = healthy_makespan();
  HealthRig plain;
  HealthRig mitigated;
  const auto rp = plain.run(slow_plan(mk));
  const auto rm = mitigated.run(slow_plan(mk), true, true);

  EXPECT_LT(rm.response_histogram.quantile(0.99),
            rp.response_histogram.quantile(0.99));
  EXPECT_LT(rm.makespan_us, rp.makespan_us);
}

TEST(FailSlow, RecoveryClearsTheFlagAndLiftsQuarantine) {
  const SimTime mk = healthy_makespan();
  HealthRig rig;
  FaultPlan plan;
  // Slow early, recover at 40%: the tail of the run re-learns the healthy
  // service profile and the monitor's hysteresis clears the flag.
  plan.slow(3, mk / 6, 8.0).recover(3, 2 * mk / 5);
  const auto r = rig.run(plan, true, /*mitigate=*/true);

  EXPECT_EQ(r.faults.slowdown_events, 1u);
  EXPECT_EQ(r.faults.recover_events, 1u);
  EXPECT_EQ(r.health.flagged_osds, std::vector<std::uint32_t>{3});
  EXPECT_GE(r.health.clear_events, 1u);
  EXPECT_EQ(r.health.quarantined_at_end, 0u);
  EXPECT_FALSE(rig.cluster->osd_quarantined(3));
}

TEST(FailSlow, HedgesSurviveTransientErrorExhaustionOnTheSickDevice) {
  // Retry exhaustion on a hedged primary must resolve the hedge (not hang
  // the op) and still count the abandon.
  const SimTime mk = healthy_makespan();
  HealthRig rig;
  FaultPlan plan = slow_plan(mk);
  plan.per_osd_error_rates = {0.0, 0.0, 0.0, 0.25};  // errors on OSD 3 too
  RetryPolicy retry;
  retry.max_attempts = 2;

  SimConfig cfg;
  cfg.num_clients = 4;
  cfg.trigger = MigrationTrigger::kNone;
  cfg.faults = std::move(plan);
  cfg.retry = retry;
  cfg.health.enabled = true;
  cfg.health.mitigate = true;
  cfg.health.check_interval_us = 100 * 1000;
  cfg.health.min_samples = 16;
  Simulator sim(cfg, *rig.cluster, rig.trace, nullptr);
  const auto r = sim.run();

  EXPECT_EQ(r.completed_ops, rig.trace.records.size());  // nothing hangs
  EXPECT_GT(r.health.hedged_reads, 0u);
  EXPECT_GT(r.faults.abandoned_requests, 0u);
}

TEST(FailSlowCluster, AdmitMigrationRejectsQuarantinedDestinations) {
  HealthRig rig;
  cluster::Cluster& c = *rig.cluster;
  // Pick any resident object and a healthy same-group destination.
  const ObjectId oid = c.placement().object_id(0, 0);
  const OsdId src = c.locate(oid);
  std::optional<OsdId> dst = c.healthy_destination(oid);
  ASSERT_TRUE(dst.has_value());

  c.set_quarantined(*dst, true);
  EXPECT_EQ(c.admit_migration(oid, *dst),
            cluster::Cluster::MigrationAdmit::kDestinationQuarantined);
  // healthy_destination respects the quarantine too.
  std::optional<OsdId> next = c.healthy_destination(oid);
  if (next.has_value()) {
    EXPECT_NE(*next, *dst);
  }

  c.set_quarantined(*dst, false);
  EXPECT_EQ(c.quarantined_count(), 0u);
  EXPECT_EQ(c.admit_migration(oid, *dst),
            cluster::Cluster::MigrationAdmit::kOk);
  c.abort_migration(oid);
  // A quarantined *source* is not a reason to refuse a move: draining it
  // is exactly what the mitigation wants.
  c.set_quarantined(src, true);
  EXPECT_EQ(c.admit_migration(oid, *dst),
            cluster::Cluster::MigrationAdmit::kOk);
  c.abort_migration(oid);
}

}  // namespace
}  // namespace edm::sim
