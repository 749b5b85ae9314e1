// DES-integrated failure injection: replay continues in degraded mode.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/cluster.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/profile.h"

namespace edm::sim {
namespace {

struct Rig {
  Rig() {
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

  /// Replays with OSD `fail_osd` failing at fraction `at` (-1 = none).
  RunResult run(std::int32_t fail_osd, double at = 0.5) {
    SimConfig cfg;
    cfg.num_clients = 4;
    cfg.trigger = MigrationTrigger::kNone;
    if (fail_osd >= 0) {
      cfg.faults.fail_at_fraction(static_cast<OsdId>(fail_osd), at);
    }
    Simulator sim(cfg, *cluster, trace, nullptr);
    return sim.run();
  }

  trace::WorkloadProfile profile;
  trace::Trace trace;
  std::unique_ptr<cluster::Cluster> cluster;
};

TEST(FailureInjection, NoInjectionByDefault) {
  Rig rig;
  const auto r = rig.run(-1);
  EXPECT_EQ(r.degraded.failed_osd, -1);
  EXPECT_EQ(r.degraded.degraded_reads, 0u);
  EXPECT_EQ(r.degraded.lost_writes, 0u);
}

TEST(FailureInjection, ReplayCompletesDegraded) {
  Rig rig;
  const auto r = rig.run(3);
  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  EXPECT_EQ(r.degraded.failed_osd, 3);
  EXPECT_GT(r.degraded.failed_at, 0u);
  // Single failure: everything reconstructable, nothing unavailable.
  EXPECT_GT(r.degraded.degraded_reads, 0u);
  EXPECT_GT(r.degraded.lost_writes, 0u);
  EXPECT_EQ(r.degraded.unavailable, 0u);
  EXPECT_TRUE(rig.cluster->osd_failed(3));
}

TEST(FailureInjection, DegradedModeCostsThroughput) {
  Rig healthy;
  Rig broken;
  const auto a = healthy.run(-1);
  const auto b = broken.run(3, 0.25);  // fail early: 75% degraded replay
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  // k-1 reconstruction reads + lost capacity must cost something.
  EXPECT_LT(b.throughput_ops_per_sec(), a.throughput_ops_per_sec());
}

TEST(FailureInjection, FractionControlsInjectionPoint) {
  Rig early;
  Rig late;
  const auto a = early.run(2, 0.1);
  const auto b = late.run(2, 0.9);
  EXPECT_LT(a.degraded.failed_at, b.degraded.failed_at);
  EXPECT_GT(a.degraded.degraded_reads, b.degraded.degraded_reads);
}

TEST(FailureInjection, FractionOutsideTheUnitIntervalIsRejected) {
  Rig rig;
  for (const double at : {1.5, -0.25, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    try {
      rig.run(1, at);
      ADD_FAILURE() << "fail_at_fraction " << at << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fail_at_fraction"),
                std::string::npos)
          << e.what();
    }
  }
  // Both ends of [0, 1] fail the OSD.
  EXPECT_EQ(rig.run(1, 0.0).degraded.failed_osd, 1);
  Rig last;
  EXPECT_EQ(last.run(1, 1.0).degraded.failed_osd, 1);
}

TEST(FailureInjection, MigrationAvoidsTheDeadDevice) {
  Rig rig;
  core::PolicyConfig pcfg;
  pcfg.model = core::WearModel(16, 0.28);
  auto policy = core::make_policy(core::PolicyKind::kHdf, pcfg);
  SimConfig cfg;
  cfg.num_clients = 4;
  cfg.trigger = MigrationTrigger::kForcedMidpoint;
  cfg.faults.fail_at_fraction(1, 0.25);  // dead before the shuffle
  Simulator sim(cfg, *rig.cluster, rig.trace, policy.get());
  const auto r = sim.run();
  EXPECT_EQ(r.completed_ops, rig.trace.records.size());
  // Whatever moved, nothing moved to or from the dead device.
  rig.cluster->remap().for_each([&](ObjectId oid, OsdId osd) {
    EXPECT_NE(osd, 1u) << "oid " << oid;
  });
}

}  // namespace
}  // namespace edm::sim
