#include "core/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "core/cdf_policy.h"
#include "core/cmt_policy.h"
#include "core/hdf_policy.h"
#include "core/selection.h"

namespace edm::core {
namespace {

// Synthetic 8-OSD cluster view builder: m=4 groups, so groups are pairs
// {0,4}, {1,5}, {2,6}, {3,7}.
class ViewBuilder {
 public:
  ViewBuilder() : placement_(8, 4, 4) {
    view_.placement = &placement_;
    view_.devices.resize(8);
    view_.objects.resize(8);
    for (OsdId i = 0; i < 8; ++i) {
      view_.devices[i].id = i;
      view_.devices[i].capacity_pages = 10000;
      view_.devices[i].free_pages = 10000;
      view_.devices[i].utilization = 0.0;
      view_.devices[i].write_pages = 1000;
      view_.devices[i].load_ewma_us = 100.0;
    }
  }

  ViewBuilder& device(OsdId id, std::uint64_t wc, double util, double load) {
    view_.devices[id].write_pages = wc;
    view_.devices[id].utilization = util;
    view_.devices[id].free_pages =
        static_cast<std::uint64_t>((1.0 - util) * 10000);
    view_.devices[id].load_ewma_us = load;
    return *this;
  }

  ViewBuilder& object(OsdId osd, ObjectId oid, std::uint32_t pages,
                      double write_temp, double total_temp,
                      bool remapped = false) {
    view_.objects[osd].push_back({oid, pages, write_temp, total_temp,
                                  remapped});
    return *this;
  }

  ViewBuilder& quarantine(OsdId id) {
    view_.devices[id].quarantined = true;
    return *this;
  }

  const ClusterView& view() const { return view_; }
  const cluster::Placement& placement() const { return placement_; }

 private:
  cluster::Placement placement_;
  ClusterView view_;
};

PolicyConfig test_config() {
  PolicyConfig cfg;
  cfg.lambda = 0.15;
  cfg.model = WearModel(32, 0.28);
  return cfg;
}

// ---------------------------------------------------------------- factory

TEST(PolicyFactory, KindStringsRoundTrip) {
  EXPECT_EQ(policy_kind_from("baseline"), PolicyKind::kNone);
  EXPECT_EQ(policy_kind_from("cmt"), PolicyKind::kCmt);
  EXPECT_EQ(policy_kind_from("hdf"), PolicyKind::kHdf);
  EXPECT_EQ(policy_kind_from("EDM-CDF"), PolicyKind::kCdf);
  EXPECT_THROW(policy_kind_from("bogus"), std::invalid_argument);
  EXPECT_STREQ(to_string(PolicyKind::kHdf), "EDM-HDF");
}

TEST(PolicyFactory, MakesCorrectTypes) {
  const PolicyConfig cfg = test_config();
  EXPECT_EQ(make_policy(PolicyKind::kNone, cfg), nullptr);
  EXPECT_STREQ(make_policy(PolicyKind::kHdf, cfg)->name(), "EDM-HDF");
  EXPECT_STREQ(make_policy(PolicyKind::kCdf, cfg)->name(), "EDM-CDF");
  EXPECT_STREQ(make_policy(PolicyKind::kCmt, cfg)->name(), "CMT");
}

TEST(PolicyFactory, BlockingSemanticsPerPaper) {
  const PolicyConfig cfg = test_config();
  EXPECT_TRUE(make_policy(PolicyKind::kHdf, cfg)->blocks_foreground());
  EXPECT_FALSE(make_policy(PolicyKind::kCdf, cfg)->blocks_foreground());
  EXPECT_FALSE(make_policy(PolicyKind::kCmt, cfg)->blocks_foreground());
}

// -------------------------------------------------------------- selection

TEST(Selection, PartitionByGroupUsesPlacement) {
  ViewBuilder b;
  const auto groups = partition_by_group(b.view());
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (std::vector<std::uint32_t>{0, 4}));
  EXPECT_EQ(groups[3], (std::vector<std::uint32_t>{3, 7}));
}

TEST(Selection, PartitionRequiresPlacement) {
  ClusterView view;
  EXPECT_THROW(partition_by_group(view), std::invalid_argument);
}

TEST(Selection, FreePageBudgetFromCap) {
  // The cap is cluster::kDestinationUtilizationCap, 0.90.
  DeviceView d;
  d.capacity_pages = 1000;
  d.free_pages = 500;  // 50% utilized
  EXPECT_EQ(free_page_budget(d), 400);
  d.free_pages = 100;  // at the cap
  EXPECT_EQ(free_page_budget(d), 0);
  d.free_pages = 50;  // past it
  EXPECT_LT(free_page_budget(d), 0);
}

TEST(Selection, AssignDestinationPrefersLargestQuota) {
  std::vector<DestinationQuota> dests = {{0, 10.0, 1000}, {1, 50.0, 1000}};
  const auto got = assign_destination(dests, 10, 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
  EXPECT_DOUBLE_EQ(dests[1].remaining_quota, 45.0);
  EXPECT_EQ(dests[1].free_page_budget, 990);
}

TEST(Selection, AssignDestinationRespectsBudget) {
  std::vector<DestinationQuota> dests = {{0, 100.0, 5}};
  EXPECT_FALSE(assign_destination(dests, 10, 1.0).has_value());
  EXPECT_TRUE(assign_destination(dests, 5, 1.0).has_value());
}

TEST(Selection, AssignDestinationSkipsExhaustedQuota) {
  std::vector<DestinationQuota> dests = {{0, 0.0, 1000}, {1, 2.0, 1000}};
  const auto got = assign_destination(dests, 10, 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
  // Quota may go negative once (overshoot), then the destination is done.
  EXPECT_FALSE(assign_destination(dests, 10, 5.0).has_value());
}

// ------------------------------------------------------------------- HDF

ViewBuilder hdf_scenario() {
  ViewBuilder b;
  // Group {0,4}: device 0 write-hot, device 4 cold.
  b.device(0, 50000, 0.65, 300.0);
  b.device(4, 5000, 0.55, 80.0);
  // Hot objects on device 0 with graded write temperatures.
  b.object(0, 100, 16, 500.0, 600.0);
  b.object(0, 101, 16, 300.0, 400.0);
  b.object(0, 102, 16, 100.0, 150.0);
  b.object(0, 103, 16, 0.0, 900.0);  // read-only-hot: HDF must ignore
  b.object(0, 104, 16, 50.0, 60.0);
  b.object(4, 200, 16, 1.0, 2.0);
  return b;
}

TEST(HdfPolicy, MovesHottestWrittenObjectsFirst) {
  HdfPolicy policy(test_config());
  const auto plan = policy.plan(hdf_scenario().view(), /*force=*/true);
  ASSERT_FALSE(plan.empty());
  // First selected object is the hottest-written one.
  EXPECT_EQ(plan.actions[0].oid, 100u);
  EXPECT_EQ(plan.actions[0].source, 0u);
  EXPECT_EQ(plan.actions[0].destination, 4u);
  // The read-hot-but-write-cold object is never moved by HDF.
  for (const auto& a : plan.actions) EXPECT_NE(a.oid, 103u);
}

TEST(HdfPolicy, RespectsIntraGroupConstraint) {
  HdfPolicy policy(test_config());
  const auto b = hdf_scenario();
  const auto plan = policy.plan(b.view(), true);
  for (const auto& a : plan.actions) {
    EXPECT_TRUE(b.placement().same_group(a.source, a.destination));
  }
}

TEST(HdfPolicy, PrefersRemappedObjects) {
  ViewBuilder b;
  b.device(0, 50000, 0.65, 300.0);
  b.device(4, 5000, 0.55, 80.0);
  // Slightly cooler but already remapped: should be picked first (SIII.C).
  b.object(0, 100, 16, 500.0, 600.0, /*remapped=*/false);
  b.object(0, 101, 16, 450.0, 500.0, /*remapped=*/true);
  b.object(4, 200, 16, 1.0, 2.0);
  HdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.actions[0].oid, 101u);
}

TEST(HdfPolicy, NoPlanWhenBalancedAndNotForced) {
  ViewBuilder b;
  for (OsdId i = 0; i < 8; ++i) b.device(i, 10000, 0.6, 100.0);
  HdfPolicy policy(test_config());
  EXPECT_TRUE(policy.plan(b.view(), /*force=*/false).empty());
}

TEST(HdfPolicy, GroupWithoutDestinationIsSkipped) {
  ViewBuilder b;
  // Both members of group {0,4} are hot; destinations exist only in other
  // groups, which HDF cannot use.
  b.device(0, 50000, 0.65, 300.0);
  b.device(4, 50000, 0.65, 300.0);
  b.device(1, 1000, 0.55, 50.0);
  b.object(0, 100, 16, 500.0, 600.0);
  b.object(4, 400, 16, 500.0, 600.0);
  HdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  for (const auto& a : plan.actions) {
    EXPECT_NE(a.source, 0u);
    EXPECT_NE(a.source, 4u);
  }
}

TEST(HdfPolicy, RespectsDestinationUtilizationCap) {
  ViewBuilder b;
  b.device(0, 50000, 0.65, 300.0);
  b.device(4, 5000, 0.895, 80.0);  // almost at the 0.90 cap: ~50 pages
  b.object(0, 100, 200, 500.0, 600.0);  // too big to fit under the cap
  b.object(0, 101, 16, 300.0, 400.0);
  b.object(4, 200, 16, 1.0, 2.0);
  HdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  ASSERT_FALSE(plan.actions.empty());
  for (const auto& a : plan.actions) EXPECT_NE(a.oid, 100u);
}

// ------------------------------------------------------------------- CDF

ViewBuilder cdf_scenario() {
  ViewBuilder b;
  // Group {1,5}: device 1 utilization-hot, device 5 roomy.
  b.device(1, 30000, 0.85, 200.0);
  b.device(5, 3000, 0.55, 100.0);
  // Device 1 holds cold objects of several sizes and one hot object.
  b.object(1, 300, 400, 1.0, 10.0);   // big & cold
  b.object(1, 301, 100, 0.5, 4.0);    // medium & cold
  b.object(1, 302, 10, 0.0, 0.0);     // small & cold
  b.object(1, 303, 50, 900.0, 2000.0);  // hot: never a CDF candidate
  b.object(5, 500, 16, 1.0, 2.0);
  return b;
}

TEST(CdfPolicy, MovesLargestColdObjectsFirst) {
  CdfPolicy policy(test_config());
  const auto plan = policy.plan(cdf_scenario().view(), true);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.actions[0].oid, 300u);  // largest cold
  for (const auto& a : plan.actions) EXPECT_NE(a.oid, 303u);  // hot stays
}

TEST(CdfPolicy, SkipsSourcesBelowHalfUtilization) {
  ViewBuilder b;
  // Wear-hot by writes but utilization below 50%: CDF must not act
  // ("we never migrate a cold object from a source device whose disk
  // utilization is less than 50 percent").
  b.device(2, 80000, 0.45, 300.0);
  b.device(6, 1000, 0.30, 50.0);
  b.object(2, 600, 100, 0.0, 0.0);
  b.object(6, 700, 16, 0.0, 0.0);
  CdfPolicy policy(test_config());
  EXPECT_TRUE(policy.plan(b.view(), true).empty());
}

TEST(CdfPolicy, ColdTestIsSizeRelative) {
  ViewBuilder b;
  b.device(1, 30000, 0.85, 200.0);
  b.device(5, 3000, 0.55, 100.0);
  // 1000-page object with temp 100 => 0.1 temp/page: cold.
  b.object(1, 300, 1000, 0.0, 100.0);
  // 10-page object with temp 100 => 10 temp/page: hot.
  b.object(1, 301, 10, 0.0, 100.0);
  b.object(5, 500, 16, 1.0, 2.0);
  CdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  ASSERT_FALSE(plan.empty());
  for (const auto& a : plan.actions) EXPECT_NE(a.oid, 301u);
}

TEST(CdfPolicy, IntraGroupOnly) {
  const auto b = cdf_scenario();
  CdfPolicy policy(test_config());
  for (const auto& a : policy.plan(b.view(), true).actions) {
    EXPECT_TRUE(b.placement().same_group(a.source, a.destination));
  }
}

// ------------------------------------------------------------------- CMT

ViewBuilder cmt_scenario() {
  ViewBuilder b;
  // Group {2,6}: device 2 overloaded by latency, device 6 idle.
  b.device(2, 20000, 0.60, 800.0);
  b.device(6, 20000, 0.58, 50.0);
  b.object(2, 800, 16, 100.0, 700.0);
  b.object(2, 801, 16, 200.0, 300.0);
  b.object(2, 802, 16, 0.0, 100.0);
  b.object(6, 900, 16, 1.0, 2.0);
  return b;
}

TEST(CmtPolicy, MovesByTotalTemperatureNotWrites) {
  CmtPolicy policy(test_config());
  const auto plan = policy.plan(cmt_scenario().view(), true);
  ASSERT_FALSE(plan.empty());
  // Object 800 has lower write temp but higher TOTAL temp than 801: CMT
  // (wear-oblivious) picks it first.
  EXPECT_EQ(plan.actions[0].oid, 800u);
}

TEST(CmtPolicy, BalancesStorageUsageToo) {
  ViewBuilder b;
  // Loads are equal, but utilizations differ: Sorrento-style CMT still
  // moves bulk data.
  b.device(3, 20000, 0.80, 100.0);
  b.device(7, 20000, 0.40, 100.0);
  b.object(3, 950, 500, 1.0, 2.0);
  b.object(3, 951, 300, 1.0, 2.0);
  b.object(7, 960, 16, 1.0, 2.0);
  CmtPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.actions[0].source, 3u);
  EXPECT_EQ(plan.actions[0].destination, 7u);
  EXPECT_EQ(plan.actions[0].oid, 950u);  // largest first
}

TEST(CmtPolicy, NeverMovesSameObjectTwice) {
  CmtPolicy policy(test_config());
  const auto plan = policy.plan(cmt_scenario().view(), true);
  std::set<ObjectId> seen;
  for (const auto& a : plan.actions) {
    EXPECT_TRUE(seen.insert(a.oid).second) << "duplicate oid " << a.oid;
  }
}

TEST(CmtPolicy, QuietClusterNoPlanUnlessForced) {
  ViewBuilder b;
  for (OsdId i = 0; i < 8; ++i) b.device(i, 10000, 0.6, 100.0);
  CmtPolicy policy(test_config());
  EXPECT_TRUE(policy.plan(b.view(), false).empty());
}

// ------------------------------------------- quarantine (health monitor)

TEST(HdfPolicy, QuarantinedDeviceIsNeverADestination) {
  auto b = hdf_scenario();
  b.quarantine(4);  // the hot device's only group peer
  HdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  for (const auto& a : plan.actions) EXPECT_NE(a.destination, 4u);
}

TEST(CdfPolicy, QuarantinedDeviceIsNeverADestination) {
  auto b = cdf_scenario();
  b.quarantine(5);
  CdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  for (const auto& a : plan.actions) EXPECT_NE(a.destination, 5u);
}

TEST(CmtPolicy, QuarantinedDeviceIsNeverADestination) {
  CmtPolicy policy(test_config());
  const auto before = policy.plan(cmt_scenario().view(), true);
  ASSERT_FALSE(before.empty());
  const OsdId dst = before.actions[0].destination;

  CmtPolicy replan(test_config());
  auto b = cmt_scenario();
  b.quarantine(dst);
  const auto after = replan.plan(b.view(), true);
  for (const auto& a : after.actions) EXPECT_NE(a.destination, dst);
}

TEST(HdfPolicy, QuarantinedDeviceRemainsAValidSource) {
  // Draining a sick device is the whole point of quarantine: the hot
  // device stays a source even while flagged, only its *destination* role
  // is revoked.
  auto b = hdf_scenario();
  b.quarantine(0);
  HdfPolicy policy(test_config());
  const auto plan = policy.plan(b.view(), true);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.actions[0].source, 0u);
  EXPECT_EQ(plan.actions[0].destination, 4u);
}

// --------------------------------------------------- cross-policy sweeps

class AllPoliciesSweep : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(AllPoliciesSweep, PlansAreIntraGroupAndDeduplicated) {
  ViewBuilder b;
  b.device(0, 60000, 0.80, 500.0).device(4, 4000, 0.52, 60.0);
  b.device(1, 45000, 0.75, 400.0).device(5, 6000, 0.55, 70.0);
  for (int i = 0; i < 30; ++i) {
    b.object(0, 1000 + i, 20 + i * 5, 10.0 * (30 - i), 15.0 * (30 - i));
    b.object(1, 2000 + i, 20 + i * 5, 8.0 * (30 - i), 12.0 * (30 - i));
  }
  b.object(4, 3000, 16, 0.5, 1.0);
  b.object(5, 3001, 16, 0.5, 1.0);
  auto policy = make_policy(GetParam(), test_config());
  const auto plan = policy->plan(b.view(), true);
  std::set<ObjectId> seen;
  for (const auto& a : plan.actions) {
    EXPECT_TRUE(b.placement().same_group(a.source, a.destination));
    EXPECT_NE(a.source, a.destination);
    EXPECT_TRUE(seen.insert(a.oid).second);
    EXPECT_GT(a.pages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesSweep,
                         ::testing::Values(PolicyKind::kHdf, PolicyKind::kCdf,
                                           PolicyKind::kCmt));

}  // namespace
}  // namespace edm::core
