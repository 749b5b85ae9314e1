// Per-block wear statistics.
#include <gtest/gtest.h>

#include "flash/ssd.h"
#include "util/rng.h"

namespace edm::flash {
namespace {

FlashConfig config() {
  FlashConfig cfg;
  cfg.num_blocks = 128;
  cfg.pages_per_block = 16;
  return cfg;
}

TEST(BlockWear, FreshDeviceHasZeroWear) {
  Ssd ssd(config());
  const auto wear = ssd.block_wear();
  EXPECT_EQ(wear.max_erases, 0u);
  EXPECT_EQ(wear.mean_erases, 0.0);
  EXPECT_EQ(wear.rsd, 0.0);
}

TEST(BlockWear, SumMatchesEraseCount) {
  Ssd ssd(config());
  util::Xoshiro256 rng(9);
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  for (int i = 0; i < 30000; ++i) {
    ssd.write(static_cast<Lpn>(rng.next_below(logical)));
  }
  std::uint64_t sum = 0;
  for (std::uint32_t b = 0; b < ssd.config().num_blocks; ++b) {
    sum += ssd.block_erases(b);
  }
  EXPECT_EQ(sum, ssd.stats().erase_count);
  const auto wear = ssd.block_wear();
  EXPECT_GE(wear.max_erases, wear.min_erases);
  EXPECT_GT(wear.mean_erases, 0.0);
}

TEST(BlockWear, SurvivesStatsReset) {
  Ssd ssd(config());
  util::Xoshiro256 rng(11);
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  for (int i = 0; i < 20000; ++i) {
    ssd.write(static_cast<Lpn>(rng.next_below(logical)));
  }
  const auto before = ssd.block_wear().max_erases;
  ASSERT_GT(before, 0u);
  ssd.reset_stats();
  EXPECT_EQ(ssd.block_wear().max_erases, before);  // lifetime counter
}

TEST(BlockWear, HotSpotTrafficSkewsInternalWear) {
  // Greedy GC recycles the blocks hosting hot data far more often: the
  // device-internal imbalance that real FTLs counter with static wear
  // levelling (our cluster-level model assumes the FTL handles it).
  Ssd uniform(config());
  Ssd hot(config());
  util::Xoshiro256 rng(13);
  const auto valid = static_cast<Lpn>(
      0.7 * static_cast<double>(uniform.config().physical_pages()));
  for (Lpn p = 0; p < valid; ++p) {
    uniform.write(p);
    hot.write(p);
  }
  for (std::uint64_t i = 0; i < 4ull * uniform.config().physical_pages();
       ++i) {
    uniform.write(static_cast<Lpn>(rng.next_below(valid)));
    const bool h = rng.next_double() < 0.9;
    hot.write(static_cast<Lpn>(h ? rng.next_below(valid / 10)
                                 : rng.next_below(valid)));
  }
  EXPECT_GT(hot.block_wear().rsd, 0.0);
  EXPECT_GT(uniform.block_wear().rsd, 0.0);
}

}  // namespace
}  // namespace edm::flash
