#include "core/lifetime.h"

#include <gtest/gtest.h>

#include <cmath>

namespace edm::core {
namespace {

const EnduranceModel kModel{2048};

TEST(Lifetime, RejectsNonPositiveWindow) {
  const std::vector<std::uint64_t> erases = {10};
  EXPECT_THROW(estimate_lifetime(erases, 0.0, kModel), std::invalid_argument);
}

TEST(Lifetime, EmptyInput) {
  const auto est = estimate_lifetime({}, 100.0, kModel);
  EXPECT_TRUE(est.device_seconds.empty());
  EXPECT_EQ(est.first_failure_seconds, 0.0);
}

TEST(Lifetime, SingleDeviceExtrapolation) {
  // 100 erases in 50 s => 2 erases/s; budget kPeCycleLimit*2048 erases.
  const std::vector<std::uint64_t> erases = {100};
  const auto est = estimate_lifetime(erases, 50.0, kModel);
  ASSERT_EQ(est.device_seconds.size(), 1u);
  EXPECT_NEAR(est.device_seconds[0], kModel.total_erase_budget() / 2.0, 1e-6);
  EXPECT_EQ(est.first_failure_seconds, est.device_seconds[0]);
  EXPECT_NEAR(est.balance_efficiency, 1.0, 1e-12);
}

TEST(Lifetime, ZeroEraseDeviceLivesForever) {
  const std::vector<std::uint64_t> erases = {0, 100};
  const auto est = estimate_lifetime(erases, 10.0, kModel);
  EXPECT_TRUE(std::isinf(est.device_seconds[0]));
  EXPECT_FALSE(std::isinf(est.first_failure_seconds));
  // Mean covers only finite lifetimes.
  EXPECT_NEAR(est.mean_seconds, est.device_seconds[1], 1e-9);
}

TEST(Lifetime, FirstFailureIsTheHottestDevice) {
  const std::vector<std::uint64_t> erases = {10, 40, 20, 5};
  const auto est = estimate_lifetime(erases, 100.0, kModel);
  EXPECT_EQ(est.first_failure_seconds, est.device_seconds[1]);
}

TEST(Lifetime, BalancedWearMaximisesClusterLifetime) {
  // Same total wear, different spreads: balanced wins on first-failure.
  const std::vector<std::uint64_t> skewed = {80, 10, 5, 5};
  const std::vector<std::uint64_t> balanced = {25, 25, 25, 25};
  const auto a = estimate_lifetime(skewed, 100.0, kModel);
  const auto b = estimate_lifetime(balanced, 100.0, kModel);
  EXPECT_GT(b.first_failure_seconds, 2.0 * a.first_failure_seconds);
  EXPECT_NEAR(b.balance_efficiency, 1.0, 1e-9);
  EXPECT_LT(a.balance_efficiency, 0.5);
}

TEST(Lifetime, GapMeasuresWearDesynchronisation) {
  // The SIII.D concern: simultaneous wear-out leaves no repair window.
  const std::vector<std::uint64_t> synced = {50, 50, 10};
  const std::vector<std::uint64_t> staggered = {50, 25, 10};
  const auto a = estimate_lifetime(synced, 100.0, kModel);
  const auto b = estimate_lifetime(staggered, 100.0, kModel);
  EXPECT_NEAR(a.first_to_second_gap_seconds, 0.0, 1e-9);
  EXPECT_GT(b.first_to_second_gap_seconds, 0.0);
}

TEST(Lifetime, BudgetScalesWithModel) {
  const std::vector<std::uint64_t> erases = {100};
  EnduranceModel big = kModel;
  big.num_blocks *= 2;
  const auto a = estimate_lifetime(erases, 10.0, kModel);
  const auto b = estimate_lifetime(erases, 10.0, big);
  EXPECT_NEAR(b.first_failure_seconds, 2.0 * a.first_failure_seconds, 1e-6);
}

}  // namespace
}  // namespace edm::core
