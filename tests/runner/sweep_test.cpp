#include "runner/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/seed.h"

namespace edm::runner {
namespace {

TEST(Sweep, IndexedPathKeepsSingleRunVerbatim) {
  EXPECT_EQ(indexed_path("out.json", 0, 1), "out.json");
}

TEST(Sweep, IndexedPathSuffixesMultiRunBeforeExtension) {
  EXPECT_EQ(indexed_path("out.json", 0, 3), "out-0.json");
  EXPECT_EQ(indexed_path("out.json", 2, 3), "out-2.json");
  EXPECT_EQ(indexed_path("dir.d/trace.json", 1, 2), "dir.d/trace-1.json");
}

TEST(Sweep, IndexedPathWithoutExtensionAppends) {
  EXPECT_EQ(indexed_path("out", 1, 2), "out-1");
}

TEST(Sweep, ParallelMapAggregatesInIndexOrder) {
  // Workers finish in reverse index order (later indices sleep less), yet
  // the output vector must follow declared order -- the determinism
  // contract's aggregation half.
  const std::size_t n = 8;
  SweepOptions opt;
  opt.jobs = 4;
  const auto out = parallel_map<std::string>(
      n,
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5 * (n - i)));
        return "run-" + std::to_string(i);
      },
      opt);
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], "run-" + std::to_string(i));
  }
}

TEST(Sweep, ParallelMapSerialWhenJobsIsOne) {
  // jobs=1 must run in the calling thread in index order.
  SweepOptions opt;
  opt.jobs = 1;
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for_each(
      5,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // safe: serial path, no data race
      },
      opt);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Sweep, ParallelForEachRunsEverythingDespiteException) {
  SweepOptions opt;
  opt.jobs = 4;
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for_each(
                   20,
                   [&](std::size_t i) {
                     if (i == 4) throw std::runtime_error("cell 4");
                     ++ran;
                   },
                   opt),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 19);
}

TEST(Sweep, LowestIndexExceptionWins) {
  SweepOptions opt;
  opt.jobs = 4;
  try {
    parallel_for_each(
        10,
        [&](std::size_t i) {
          if (i == 2) {
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            throw std::runtime_error("2");
          }
          if (i == 6) throw std::runtime_error("6");
        },
        opt);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
}

TEST(Sweep, RunSweepPropagatesRunFailure) {
  // An unknown trace name makes run_experiment throw inside a worker; the
  // sweep must surface that to the caller, not swallow it.
  std::vector<sim::ExperimentConfig> cells(2);
  cells[0].trace_name = "home02";
  cells[0].scale = 0.002;
  cells[0].num_osds = 8;
  cells[1] = cells[0];
  cells[1].trace_name = "no-such-trace";
  SweepOptions opt;
  opt.jobs = 2;
  EXPECT_THROW(run_sweep(std::move(cells), opt), std::exception);
}

TEST(Sweep, RunSweepKeepsResultsInGridOrder) {
  // Result i comes from cell i, whichever worker finishes first.
  std::vector<sim::ExperimentConfig> cells(3);
  const core::PolicyKind policies[] = {core::PolicyKind::kNone,
                                       core::PolicyKind::kHdf,
                                       core::PolicyKind::kCdf};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].trace_name = "home02";
    cells[i].scale = 0.005;
    cells[i].num_osds = 8;
    cells[i].policy = policies[i];
  }
  SweepOptions opt;
  opt.jobs = 3;
  const auto results = run_sweep(std::move(cells), opt);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].policy_name, "baseline");
  EXPECT_EQ(results[1].policy_name, "EDM-HDF");
  EXPECT_EQ(results[2].policy_name, "EDM-CDF");
}

TEST(Sweep, ApplySeedDerivationAssignsDistinctOffsets) {
  std::vector<sim::ExperimentConfig> cells(16);
  apply_seed_derivation(cells, 7);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].trace_seed_offset, derive_seed(7, i));
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      EXPECT_NE(cells[i].trace_seed_offset, cells[j].trace_seed_offset);
    }
  }
}

TEST(Sweep, ZeroCellsIsANoOp) {
  SweepOptions opt;
  opt.jobs = 4;
  const auto out = parallel_map<int>(
      0, [](std::size_t) -> int { throw std::logic_error("never"); }, opt);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(run_sweep({}, opt).empty());
}

}  // namespace
}  // namespace edm::runner
