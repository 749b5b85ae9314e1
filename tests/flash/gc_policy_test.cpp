// Victim-selection policies: greedy (the paper's assumption) vs
// cost-benefit (Kawaguchi's age-weighted score).
#include <gtest/gtest.h>

#include "flash/ssd.h"
#include "util/rng.h"

namespace edm::flash {
namespace {

FlashConfig config(FlashConfig::GcPolicy policy) {
  FlashConfig cfg;
  cfg.num_blocks = 256;
  cfg.pages_per_block = 16;
  cfg.op_ratio = 0.10;
  cfg.gc_policy = policy;
  return cfg;
}

void churn(Ssd& ssd, std::uint64_t writes, double hot_bias,
           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto valid = static_cast<Lpn>(
      0.7 * static_cast<double>(ssd.config().physical_pages()));
  for (Lpn p = 0; p < valid; ++p) ssd.write(p);
  const auto hot = static_cast<Lpn>(valid / 10);
  for (std::uint64_t i = 0; i < writes; ++i) {
    const bool is_hot = rng.next_double() < hot_bias;
    ssd.write(static_cast<Lpn>(is_hot ? rng.next_below(hot)
                                      : hot + rng.next_below(valid - hot)));
  }
}

TEST(GcPolicy, CostBenefitPreservesCorrectness) {
  Ssd ssd(config(FlashConfig::GcPolicy::kCostBenefit));
  util::Xoshiro256 rng(3);
  const auto logical = static_cast<Lpn>(ssd.config().logical_pages());
  std::vector<bool> live(logical, false);
  for (int i = 0; i < 50000; ++i) {
    const auto lpn = static_cast<Lpn>(rng.next_below(logical));
    if (rng.next_double() < 0.85) {
      ssd.write(lpn);
      live[lpn] = true;
    } else {
      ssd.trim(lpn);
      live[lpn] = false;
    }
  }
  for (Lpn p = 0; p < logical; ++p) ASSERT_EQ(ssd.is_mapped(p), live[p]);
  EXPECT_TRUE(ssd.check_invariants());
  EXPECT_GT(ssd.stats().erase_count, 0u);
}

TEST(GcPolicy, CostBenefitIsDeterministic) {
  Ssd a(config(FlashConfig::GcPolicy::kCostBenefit));
  Ssd b(config(FlashConfig::GcPolicy::kCostBenefit));
  churn(a, 30000, 0.8, 7);
  churn(b, 30000, 0.8, 7);
  EXPECT_EQ(a.stats().erase_count, b.stats().erase_count);
  EXPECT_EQ(a.stats().gc_page_moves, b.stats().gc_page_moves);
}

TEST(GcPolicy, BothPoliciesReclaimUnderPressure) {
  for (auto policy : {FlashConfig::GcPolicy::kGreedy,
                      FlashConfig::GcPolicy::kCostBenefit}) {
    Ssd ssd(config(policy));
    churn(ssd, 4ull * ssd.config().physical_pages(), 0.5, 11);
    EXPECT_GE(ssd.free_blocks(), kGcLowWater - 1);
    EXPECT_TRUE(ssd.check_invariants());
  }
}

TEST(GcPolicy, CostBenefitSpreadsBlockWearUnderHotSpots) {
  // Greedy hammers the blocks that host hot data; cost-benefit's age term
  // rotates victims, narrowing the device-internal erase spread.
  Ssd greedy(config(FlashConfig::GcPolicy::kGreedy));
  Ssd cb(config(FlashConfig::GcPolicy::kCostBenefit));
  const std::uint64_t writes = 6ull * greedy.config().physical_pages();
  churn(greedy, writes, 0.9, 13);
  churn(cb, writes, 0.9, 13);
  EXPECT_LT(cb.block_wear().rsd, greedy.block_wear().rsd);
}

TEST(GcPolicy, GreedyMinimisesRelocations) {
  // Greedy is optimal for immediate write amplification; cost-benefit pays
  // some WA for wear spread.  Assert the *direction* of the trade.
  Ssd greedy(config(FlashConfig::GcPolicy::kGreedy));
  Ssd cb(config(FlashConfig::GcPolicy::kCostBenefit));
  const std::uint64_t writes = 6ull * greedy.config().physical_pages();
  churn(greedy, writes, 0.9, 17);
  churn(cb, writes, 0.9, 17);
  EXPECT_LE(greedy.stats().write_amplification(),
            cb.stats().write_amplification() + 0.01);
}

}  // namespace
}  // namespace edm::flash
