// Equivalence proofs for the batched range fast paths: every range op must
// be observationally identical to calling the per-page op in a loop -- same
// returned service time, same stats, same GC trigger points, and the same
// physical layout (pinned via per-block erase counts after further churn).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flash/ssd.h"
#include "util/rng.h"

namespace edm::flash {
namespace {

FlashConfig tiny_config() {
  FlashConfig cfg;
  cfg.num_blocks = 32;
  cfg.pages_per_block = 8;  // ranges span several blocks
  cfg.op_ratio = 0.10;
  return cfg;
}

/// Loop-of-per-page references for the range ops: the serial sum.
SimDuration looped_write_range(Ssd& ssd, Lpn first, std::uint32_t pages) {
  SimDuration serial = 0;
  for (std::uint32_t i = 0; i < pages; ++i) serial += ssd.write(first + i);
  return serial;
}

SimDuration looped_read_range(Ssd& ssd, Lpn first, std::uint32_t pages) {
  SimDuration serial = 0;
  for (std::uint32_t i = 0; i < pages; ++i) serial += ssd.read(first + i);
  return serial;
}

void expect_same_stats(const Ssd& a, const Ssd& b) {
  EXPECT_EQ(a.stats().host_page_reads, b.stats().host_page_reads);
  EXPECT_EQ(a.stats().host_page_writes, b.stats().host_page_writes);
  EXPECT_EQ(a.stats().gc_page_moves, b.stats().gc_page_moves);
  EXPECT_EQ(a.stats().erase_count, b.stats().erase_count);
  EXPECT_EQ(a.stats().victim_valid_pages, b.stats().victim_valid_pages);
  EXPECT_EQ(a.stats().trimmed_pages, b.stats().trimmed_pages);
  EXPECT_EQ(a.stats().busy_time_us, b.stats().busy_time_us);
  EXPECT_EQ(a.valid_pages(), b.valid_pages());
  EXPECT_EQ(a.free_blocks(), b.free_blocks());
}

/// Per-block lifetime erase counts: a fingerprint of the physical layout.
/// Two devices that ever diverged in a GC decision diverge here after churn.
void expect_same_wear(const Ssd& a, const Ssd& b) {
  for (std::uint32_t blk = 0; blk < a.config().num_blocks; ++blk) {
    ASSERT_EQ(a.block_erases(blk), b.block_erases(blk)) << "block " << blk;
  }
}

TEST(SsdRangeOps, WriteRangeMatchesLoopedWritesThroughGc) {
  // Random mixed workload on twin devices, batched vs looped, sized so GC
  // triggers many times *inside* ranges.  Every op's service time must
  // match exactly (a GC stall landing on a different page of the range
  // would change the batched total).
  Ssd batched(tiny_config());
  Ssd looped(tiny_config());
  util::Xoshiro256 rng(42);
  const auto logical = static_cast<Lpn>(batched.config().logical_pages());
  for (int op = 0; op < 4000; ++op) {
    const auto pages =
        static_cast<std::uint32_t>(1 + rng.next_below(3 * 8));  // ~3 blocks
    const auto first = static_cast<Lpn>(rng.next_below(logical - pages));
    ASSERT_EQ(batched.write_range(first, pages),
              looped_write_range(looped, first, pages))
        << "op " << op;
  }
  expect_same_stats(batched, looped);
  expect_same_wear(batched, looped);
  EXPECT_TRUE(batched.check_invariants());
  EXPECT_TRUE(looped.check_invariants());
  EXPECT_GT(batched.stats().erase_count, 0u) << "workload never hit GC";
}

TEST(SsdRangeOps, WriteRangeGcTriggerBoundary) {
  // Drive the free pool to exactly the low-water mark, then write a range
  // that crosses the boundary: the first pages must not GC, the page that
  // drops the pool below low water must, exactly as the looped path does.
  Ssd batched(tiny_config());
  Ssd looped(tiny_config());
  const auto logical = static_cast<Lpn>(batched.config().logical_pages());
  // Sequential fill brings both devices to an identical near-full state.
  for (Lpn lpn = 0; lpn < logical; ++lpn) {
    ASSERT_EQ(batched.write(lpn), looped.write(lpn));
  }
  // Overwrite ranges until every GC boundary alignment has been crossed.
  for (int round = 0; round < 200; ++round) {
    const auto first = static_cast<Lpn>((round * 13) % (logical - 17));
    ASSERT_EQ(batched.write_range(first, 17),
              looped_write_range(looped, first, 17))
        << "round " << round;
    ASSERT_EQ(batched.free_blocks(), looped.free_blocks()) << round;
  }
  expect_same_stats(batched, looped);
  expect_same_wear(batched, looped);
}

TEST(SsdRangeOps, ReadRangeMatchesLoopedReads) {
  Ssd batched(tiny_config());
  Ssd looped(tiny_config());
  batched.write_range(0, 64);
  looped.write_range(0, 64);
  for (std::uint32_t pages : {0u, 1u, 2u, 7u, 64u}) {
    ASSERT_EQ(batched.read_range(3, pages), looped_read_range(looped, 3, pages))
        << pages << " pages";
  }
  expect_same_stats(batched, looped);
}

TEST(SsdRangeOps, TrimRangeMatchesLoopedTrims) {
  Ssd batched(tiny_config());
  Ssd looped(tiny_config());
  batched.write_range(0, 40);
  looped.write_range(0, 40);
  // Half-mapped range: only mapped pages count as trimmed.
  SimDuration lt = 0;
  for (std::uint32_t i = 0; i < 60; ++i) lt += looped.trim(20 + i);
  EXPECT_EQ(batched.trim_range(20, 60), lt);
  expect_same_stats(batched, looped);
  EXPECT_EQ(batched.stats().trimmed_pages, 20u);
  EXPECT_TRUE(batched.check_invariants());
}

TEST(SsdRangeOps, MultiChannelWriteRangeThroughGcAndGcStream) {
  // The separated GC stream through random-length ranges: the batched
  // path must reproduce its relocation appends and GC stalls exactly.
  // Channel parallelism itself is covered by FlashParallel.*.
  FlashConfig cfg = tiny_config();
  cfg.separate_gc_stream = true;
  Ssd batched(cfg);
  Ssd looped(cfg);
  util::Xoshiro256 rng(7);
  const auto logical = static_cast<Lpn>(batched.config().logical_pages());
  for (int op = 0; op < 3000; ++op) {
    const auto pages = static_cast<std::uint32_t>(1 + rng.next_below(20));
    const auto first = static_cast<Lpn>(rng.next_below(logical - pages));
    ASSERT_EQ(batched.write_range(first, pages),
              looped_write_range(looped, first, pages))
        << "op " << op;
  }
  expect_same_stats(batched, looped);
  expect_same_wear(batched, looped);
  EXPECT_GT(batched.stats().erase_count, 0u);
}

}  // namespace
}  // namespace edm::flash
