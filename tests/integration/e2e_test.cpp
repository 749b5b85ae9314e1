// End-to-end integration tests: replay full (reduced-scale) workloads under
// every system and assert the cross-cutting invariants plus the paper's
// qualitative orderings.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "runner/sweep.h"

namespace edm {
namespace {

using core::PolicyKind;
using sim::ExperimentConfig;
using sim::RunResult;

/// One shared grid for the whole suite (runs once, ~seconds).
class E2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<ExperimentConfig> cells;
    for (PolicyKind policy :
         {PolicyKind::kNone, PolicyKind::kCmt, PolicyKind::kHdf,
          PolicyKind::kCdf}) {
      ExperimentConfig cfg;
      cfg.trace_name = "lair62";
      cfg.scale = 0.03;
      cfg.num_osds = 16;
      cfg.policy = policy;
      cfg.sim.response_window_us = 2 * 1000 * 1000;
      cfg.scale_time_windows = false;
      cells.push_back(cfg);
    }
    results_ = new std::vector<RunResult>(runner::run_sweep(cells));
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  const RunResult& baseline() const { return (*results_)[0]; }
  const RunResult& cmt() const { return (*results_)[1]; }
  const RunResult& hdf() const { return (*results_)[2]; }
  const RunResult& cdf() const { return (*results_)[3]; }

  static std::vector<RunResult>* results_;
};

std::vector<RunResult>* E2E::results_ = nullptr;

TEST_F(E2E, AllSystemsCompleteTheSameWorkload) {
  for (const RunResult* r : {&baseline(), &cmt(), &hdf(), &cdf()}) {
    EXPECT_EQ(r->completed_ops, baseline().completed_ops);
    EXPECT_GT(r->throughput_ops_per_sec(), 0.0);
    EXPECT_EQ(r->total_objects, baseline().total_objects);
  }
}

TEST_F(E2E, BaselineShowsWearVariance) {
  // The paper's motivation (Fig. 1): per-SSD erase counts vary widely with
  // hash placement and no migration.
  EXPECT_GT(baseline().erase_rsd(), 0.3);
}

TEST_F(E2E, MigrationReducesWearVariance) {
  EXPECT_LT(hdf().erase_rsd(), baseline().erase_rsd());
  EXPECT_LT(cmt().erase_rsd(), baseline().erase_rsd());
}

TEST_F(E2E, HdfImprovesThroughput) {
  // Fig. 5: EDM-HDF improves aggregate throughput over the baseline.
  EXPECT_GT(hdf().throughput_ops_per_sec(),
            baseline().throughput_ops_per_sec() * 1.02);
}

TEST_F(E2E, HdfHasFewestErases) {
  // Fig. 6: HDF never exceeds the baseline's erases and beats CMT.
  EXPECT_LE(hdf().aggregate_erases(), baseline().aggregate_erases() * 1.01);
  EXPECT_LT(hdf().aggregate_erases(), cmt().aggregate_erases());
}

TEST_F(E2E, CdfStaysNearBaselineErases) {
  // Fig. 6: "the aggregate block erase in CDF increases by only less than
  // 6% compared to the baseline system."
  EXPECT_LE(cdf().aggregate_erases(), baseline().aggregate_erases() * 1.06);
}

TEST_F(E2E, MovedObjectOrderingMatchesFig8) {
  // CMT moves the most objects, HDF the fewest.
  EXPECT_GT(cmt().migration.moved_objects, hdf().migration.moved_objects);
  EXPECT_GE(cdf().migration.moved_objects, hdf().migration.moved_objects);
  // "the percentage of total moved objects is relatively small (at most
  // 1%)" -- at this test's tiny 0.03 scale the fraction inflates (fewer
  // objects, same per-group plan shape), so allow some headroom; the fig8
  // bench validates the ~1% bound at >= 0.1 scale.
  for (const RunResult* r : {&cmt(), &hdf(), &cdf()}) {
    EXPECT_LE(r->moved_object_fraction(), 0.05);
  }
}

TEST_F(E2E, RemapTableSizeEqualsRemappedObjects) {
  for (const RunResult* r : {&cmt(), &hdf(), &cdf()}) {
    EXPECT_LE(r->migration.remap_table_size, r->migration.moved_objects);
  }
}

TEST_F(E2E, HostWritesConservedAcrossSystems) {
  // Foreground write volume is workload-determined; only migration and GC
  // add device writes.  Migrating systems write at least as much.
  for (const RunResult* r : {&cmt(), &hdf(), &cdf()}) {
    EXPECT_GE(r->aggregate_host_writes(), baseline().aggregate_host_writes());
  }
}

TEST_F(E2E, ResponseTimelineIsUsable) {
  for (const RunResult* r : {&baseline(), &hdf(), &cdf()}) {
    ASSERT_GE(r->response_timeline.size(), 3u);
    std::uint64_t total = 0;
    for (const auto& w : r->response_timeline) total += w.completed_ops;
    EXPECT_EQ(total, r->completed_ops);
  }
}

// Cross-trace sweep: every workload must run clean under every policy at a
// small scale (smoke-level, but it exercises the full stack per cell).
struct SweepParam {
  const char* trace;
  PolicyKind policy;
};

// gtest_discover_tests keeps the "# GetParam() = ..." text in the ctest name
// of a custom-named case; without this the default byte dump prints the
// `trace` pointer, so the name changed with every build's load address.
void PrintTo(const SweepParam& param, std::ostream* os) {
  *os << param.trace << '/' << core::to_string(param.policy);
}

class FullMatrixSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FullMatrixSweep, RunsClean) {
  ExperimentConfig cfg;
  cfg.trace_name = GetParam().trace;
  cfg.scale = 0.004;
  cfg.num_osds = 8;
  cfg.policy = GetParam().policy;
  const RunResult r = run_experiment(cfg);
  EXPECT_GT(r.completed_ops, 0u);
  EXPECT_GT(r.aggregate_erases(), 0u);
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const char* trace : {"home02", "home03", "home04", "deasna", "deasna2",
                            "lair62", "lair62b", "random"}) {
    for (PolicyKind policy : {PolicyKind::kNone, PolicyKind::kCmt,
                              PolicyKind::kHdf, PolicyKind::kCdf}) {
      out.push_back({trace, policy});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, FullMatrixSweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      std::string name = std::string(param_info.param.trace) + "_" +
                         core::to_string(param_info.param.policy);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace edm
