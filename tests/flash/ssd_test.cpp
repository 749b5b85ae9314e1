#include "flash/ssd.h"

#include <gtest/gtest.h>

#include "core/wear_model.h"
#include "util/rng.h"

namespace edm::flash {
namespace {

FlashConfig small_config(std::uint32_t blocks = 64) {
  FlashConfig cfg;
  cfg.num_blocks = blocks;
  cfg.pages_per_block = 16;
  cfg.op_ratio = 0.10;
  return cfg;
}

TEST(Ssd, FreshDeviceState) {
  Ssd ssd(small_config());
  EXPECT_EQ(ssd.valid_pages(), 0u);
  EXPECT_EQ(ssd.physical_utilization(), 0.0);
  EXPECT_FALSE(ssd.is_mapped(0));
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(Ssd, WriteMapsPage) {
  Ssd ssd(small_config());
  const auto t = ssd.write(5);
  EXPECT_EQ(t, kPageWriteUs);
  EXPECT_TRUE(ssd.is_mapped(5));
  EXPECT_EQ(ssd.valid_pages(), 1u);
  EXPECT_EQ(ssd.stats().host_page_writes, 1u);
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(Ssd, OverwriteInvalidatesOldVersion) {
  Ssd ssd(small_config());
  ssd.write(5);
  ssd.write(5);
  EXPECT_EQ(ssd.valid_pages(), 1u);  // only the latest version is live
  EXPECT_EQ(ssd.stats().host_page_writes, 2u);
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(Ssd, ReadCostsPageReadTime) {
  Ssd ssd(small_config());
  ssd.write(1);
  EXPECT_EQ(ssd.read(1), kPageReadUs);
  EXPECT_EQ(ssd.stats().host_page_reads, 1u);
}

TEST(Ssd, TrimUnmapsAndCountsOnlyMappedPages) {
  Ssd ssd(small_config());
  ssd.write(3);
  EXPECT_EQ(ssd.trim(3), 0u);
  EXPECT_FALSE(ssd.is_mapped(3));
  EXPECT_EQ(ssd.valid_pages(), 0u);
  EXPECT_EQ(ssd.stats().trimmed_pages, 1u);
  ssd.trim(3);  // double trim is a no-op
  EXPECT_EQ(ssd.stats().trimmed_pages, 1u);
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(Ssd, RangeHelpersCoverAllPages) {
  Ssd ssd(small_config());
  ssd.write_range(10, 5);
  for (Lpn p = 10; p < 15; ++p) EXPECT_TRUE(ssd.is_mapped(p));
  EXPECT_EQ(ssd.stats().host_page_writes, 5u);
  ssd.trim_range(10, 5);
  EXPECT_EQ(ssd.valid_pages(), 0u);
}

TEST(Ssd, NoGcBeforePoolExhausted) {
  Ssd ssd(small_config());
  // A handful of writes cannot trigger GC on a fresh device.
  for (Lpn p = 0; p < 32; ++p) ssd.write(p);
  EXPECT_EQ(ssd.stats().erase_count, 0u);
}

TEST(Ssd, GcTriggersUnderChurnAndReclaimsSpace) {
  Ssd ssd(small_config());
  util::Xoshiro256 rng(1);
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  // Write far more pages than physical capacity; GC must keep up.
  for (int i = 0; i < 20000; ++i) {
    ssd.write(static_cast<Lpn>(rng.next_below(logical)));
  }
  EXPECT_GT(ssd.stats().erase_count, 0u);
  EXPECT_GE(ssd.free_blocks(), kGcLowWater - 1);
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(Ssd, GcStallChargedToTriggeringWrite) {
  Ssd ssd(small_config());
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  // Fill the device fully so the next writes must collect garbage.
  for (Lpn p = 0; p < logical; ++p) ssd.write(p);
  SimDuration max_write = 0;
  for (int i = 0; i < 200; ++i) {
    max_write = std::max(max_write, ssd.write(static_cast<Lpn>(i % logical)));
  }
  // At least one write must have absorbed an erase (2 ms) worth of stall.
  EXPECT_GE(max_write, kPageWriteUs + kBlockEraseUs);
}

TEST(Ssd, SequentialCyclingHasNearZeroWriteAmplification) {
  Ssd ssd(small_config(128));
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  // Sequential overwrite rounds: victim blocks are fully invalid, so GC
  // relocates (almost) nothing.
  for (int round = 0; round < 6; ++round) {
    for (Lpn p = 0; p < logical; ++p) ssd.write(p);
  }
  EXPECT_LT(ssd.stats().write_amplification(), 1.05);
  EXPECT_GT(ssd.stats().erase_count, 0u);
}

TEST(Ssd, MeasuredUrApproachesEq2ForUniformRandomWrites) {
  FlashConfig cfg = small_config(512);
  Ssd ssd(cfg);
  util::Xoshiro256 rng(7);
  const auto logical = static_cast<Lpn>(cfg.logical_pages());
  const auto target_valid =
      static_cast<Lpn>(0.7 * static_cast<double>(cfg.physical_pages()));
  for (Lpn p = 0; p < target_valid; ++p) ssd.write(p);
  // Churn uniformly within the valid set, measure the steady half.
  for (std::uint64_t i = 0; i < 4ull * cfg.physical_pages(); ++i) {
    ssd.write(static_cast<Lpn>(rng.next_below(target_valid)));
  }
  ssd.reset_stats();
  for (std::uint64_t i = 0; i < 4ull * cfg.physical_pages(); ++i) {
    ssd.write(static_cast<Lpn>(rng.next_below(target_valid)));
  }
  const double measured = ssd.stats().measured_ur(cfg.pages_per_block);
  const double eq2 = core::WearModel(cfg.pages_per_block, 0.0)
                         .ur_of_utilization(ssd.physical_utilization());
  // Greedy GC does slightly better than the LFS closed form; allow a band.
  EXPECT_GT(measured, eq2 - 0.15);
  EXPECT_LT(measured, eq2 + 0.05);
  (void)logical;
}

TEST(Ssd, SequentialStreamsLowerVictimValidRatio) {
  // Spatially sequential overwrite runs kill whole blocks at once, so GC
  // victims are emptier than under uniform random traffic.  This is the
  // locality mechanism behind Fig. 3's measured-vs-Eq.2 gap.
  FlashConfig cfg = small_config(512);
  Ssd streaming(cfg);
  Ssd uniform(cfg);
  util::Xoshiro256 rng(9);
  const auto target_valid =
      static_cast<Lpn>(0.7 * static_cast<double>(cfg.physical_pages()));
  for (Lpn p = 0; p < target_valid; ++p) {
    streaming.write(p);
    uniform.write(p);
  }
  const std::uint64_t churn = 6ull * cfg.physical_pages();
  Lpn cursor = 0;
  for (std::uint64_t i = 0; i < churn; ++i) {
    uniform.write(static_cast<Lpn>(rng.next_below(target_valid)));
    // 80% sequential stream, 20% random jumps.
    if (rng.next_double() < 0.2) {
      cursor = static_cast<Lpn>(rng.next_below(target_valid));
    }
    streaming.write(cursor);
    cursor = (cursor + 1) % target_valid;
  }
  EXPECT_LT(streaming.stats().measured_ur(cfg.pages_per_block),
            uniform.stats().measured_ur(cfg.pages_per_block));
  EXPECT_LT(streaming.stats().write_amplification(),
            uniform.stats().write_amplification());
}

TEST(Ssd, UnseparatedHotColdMixingRaisesVictimValidRatio) {
  // The dual effect: with a page-level FTL that does NOT separate hot and
  // cold data, extreme random hot-spot traffic freezes most cold blocks
  // and accumulates relocated cold pages in the small cycling pool, so
  // victims get FULLER than uniform.  (This is exactly why hot/cold
  // separating FTLs exist; the paper's workloads avoid it through their
  // sequential-run locality.)
  FlashConfig cfg = small_config(512);
  Ssd hot_cold(cfg);
  Ssd uniform(cfg);
  util::Xoshiro256 rng(9);
  const auto target_valid =
      static_cast<Lpn>(0.7 * static_cast<double>(cfg.physical_pages()));
  for (Lpn p = 0; p < target_valid; ++p) {
    hot_cold.write(p);
    uniform.write(p);
  }
  const auto hot_set = static_cast<Lpn>(target_valid / 20);  // 5% hot
  const std::uint64_t churn = 6ull * cfg.physical_pages();
  for (std::uint64_t i = 0; i < churn; ++i) {
    uniform.write(static_cast<Lpn>(rng.next_below(target_valid)));
    const bool hot = rng.next_double() < 0.9;
    hot_cold.write(static_cast<Lpn>(
        hot ? rng.next_below(hot_set)
            : hot_set + rng.next_below(target_valid - hot_set)));
  }
  EXPECT_GT(hot_cold.stats().measured_ur(cfg.pages_per_block),
            uniform.stats().measured_ur(cfg.pages_per_block));
}

TEST(Ssd, PrefillWritesEveryLogicalPage) {
  Ssd ssd(small_config());
  ssd.prefill();
  EXPECT_EQ(ssd.valid_pages(), ssd.config().logical_pages());
  for (Lpn p = 0; p < ssd.config().logical_pages(); ++p) {
    ASSERT_TRUE(ssd.is_mapped(p));
  }
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(Ssd, ResetStatsKeepsMapping) {
  Ssd ssd(small_config());
  ssd.write(1);
  ssd.reset_stats();
  EXPECT_EQ(ssd.stats().host_page_writes, 0u);
  EXPECT_TRUE(ssd.is_mapped(1));
  EXPECT_EQ(ssd.valid_pages(), 1u);
}

TEST(Ssd, UtilizationRatios) {
  Ssd ssd(small_config());
  const auto logical = ssd.config().logical_pages();
  for (Lpn p = 0; p < logical / 2; ++p) ssd.write(p);
  EXPECT_NEAR(ssd.logical_utilization(), 0.5, 0.02);
  EXPECT_LT(ssd.physical_utilization(), ssd.logical_utilization());
}

TEST(Ssd, BusyTimeAccumulates) {
  Ssd ssd(small_config());
  ssd.write(0);
  ssd.read(0);
  EXPECT_EQ(ssd.stats().busy_time_us, kPageWriteUs + kPageReadUs);
}

// Property: after arbitrary interleaved writes/trims, invariants hold and
// valid_pages equals the number of distinct live LPNs.
TEST(Ssd, FuzzedWorkloadPreservesInvariants) {
  Ssd ssd(small_config(128));
  util::Xoshiro256 rng(21);
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  std::vector<bool> live(logical, false);
  for (int i = 0; i < 50000; ++i) {
    const auto lpn = static_cast<Lpn>(rng.next_below(logical));
    if (rng.next_double() < 0.8) {
      ssd.write(lpn);
      live[lpn] = true;
    } else {
      ssd.trim(lpn);
      live[lpn] = false;
    }
  }
  std::uint64_t expected = 0;
  for (Lpn p = 0; p < logical; ++p) {
    EXPECT_EQ(ssd.is_mapped(p), live[p]);
    if (live[p]) ++expected;
  }
  EXPECT_EQ(ssd.valid_pages(), expected);
  EXPECT_TRUE(ssd.check_invariants());
}

class SsdGeometrySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(SsdGeometrySweep, ChurnStaysConsistent) {
  FlashConfig cfg;
  cfg.num_blocks = std::get<0>(GetParam());
  cfg.pages_per_block = std::get<1>(GetParam());
  cfg.op_ratio = 0.08;
  Ssd ssd(cfg);
  util::Xoshiro256 rng(33);
  const auto logical = static_cast<Lpn>(cfg.logical_pages());
  for (std::uint64_t i = 0; i < 3ull * cfg.physical_pages(); ++i) {
    ssd.write(static_cast<Lpn>(rng.next_below(logical)));
  }
  EXPECT_TRUE(ssd.check_invariants());
  EXPECT_GT(ssd.stats().erase_count, 0u);
  EXPECT_GE(ssd.stats().write_amplification(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SsdGeometrySweep,
    ::testing::Values(std::make_tuple(32u, 8u), std::make_tuple(64u, 16u),
                      std::make_tuple(128u, 32u), std::make_tuple(256u, 64u),
                      std::make_tuple(1024u, 32u)));

}  // namespace
}  // namespace edm::flash
