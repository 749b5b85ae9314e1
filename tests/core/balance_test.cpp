#include "core/balance.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

namespace edm::core {
namespace {

const WearModel kModel(32, 0.28);

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(Balance, SizeMismatchThrows) {
  const std::vector<double> wc = {1.0, 2.0};
  const std::vector<double> u = {0.5};
  EXPECT_THROW(
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages),
      std::invalid_argument);
}

TEST(Balance, NegativeWritePagesThrow) {
  // Eq. 4 falls with F(u) only for Wc >= 0, which the epsilon search needs.
  const std::vector<double> u = {0.6, 0.6};
  for (const double bad :
       {-1.0, -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const std::vector<double> wc = {1000.0, bad};
    for (const BalanceMode mode :
         {BalanceMode::kWritePages, BalanceMode::kUtilization}) {
      EXPECT_THROW(calculate_data_movement(kModel, wc, u, mode),
                   std::invalid_argument)
          << bad;
    }
  }
}

TEST(Balance, DegenerateInputs) {
  EXPECT_TRUE(calculate_data_movement(kModel, {}, {}, BalanceMode::kWritePages)
                  .empty());
  const auto single = calculate_data_movement(kModel, {{1000.0}}, {{0.6}},
                                              BalanceMode::kWritePages);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], 0.0);
}

TEST(Balance, AlreadyBalancedMovesNothing) {
  const std::vector<double> wc = {10000, 10000, 10000, 10000};
  const std::vector<double> u = {0.6, 0.6, 0.6, 0.6};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages);
  for (double d : delta) EXPECT_NEAR(d, 0.0, 1e-9);
}

TEST(Balance, WritePageModeConservesTotal) {
  const std::vector<double> wc = {50000, 10000, 20000, 5000};
  const std::vector<double> u = {0.7, 0.55, 0.6, 0.5};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages);
  EXPECT_NEAR(total(delta), 0.0, 1e-6);
}

TEST(Balance, WritePageModeEqualizesEraseEstimates) {
  const std::vector<double> wc = {50000, 10000};
  const std::vector<double> u = {0.6, 0.6};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages);
  const double ec0 = kModel.erase_count(wc[0] + delta[0], u[0]);
  const double ec1 = kModel.erase_count(wc[1] + delta[1], u[1]);
  // Same utilization: perfect balance is wc equal.
  EXPECT_NEAR(ec0, ec1, 0.05 * ec0);
  EXPECT_LT(delta[0], 0.0);
  EXPECT_GT(delta[1], 0.0);
}

TEST(Balance, HotDeviceShedsToColdAcrossUtilizations) {
  // Device 0: many writes at high utilization; device 1: few writes, low u.
  const std::vector<double> wc = {60000, 10000};
  const std::vector<double> u = {0.75, 0.45};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages);
  EXPECT_LT(delta[0], 0.0);
  EXPECT_GT(delta[1], 0.0);
  const double ec0 = kModel.erase_count(wc[0] + delta[0], u[0]);
  const double ec1 = kModel.erase_count(wc[1] + delta[1], u[1]);
  EXPECT_NEAR(ec0, ec1, 0.10 * std::max(ec0, ec1));
}

TEST(Balance, UtilizationModeConservesTotal) {
  const std::vector<double> wc = {20000, 20000, 20000};
  const std::vector<double> u = {0.85, 0.55, 0.60};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kUtilization);
  EXPECT_NEAR(total(delta), 0.0, 1e-9);
}

TEST(Balance, UtilizationModeShedsFromFullDevice) {
  const std::vector<double> wc = {20000, 20000};
  const std::vector<double> u = {0.85, 0.55};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kUtilization);
  EXPECT_LT(delta[0], 0.0);
  EXPECT_GT(delta[1], 0.0);
}

TEST(Balance, UtilizationModeRespectsFloor) {
  BalanceParams params;
  params.utilization_floor = 0.50;
  params.max_source_shed = 1.0;  // floor is the only constraint
  // Write-driven gap that utilization cannot close: the scan must stop at
  // the floor instead of draining the device.
  const std::vector<double> wc = {90000, 1000};
  const std::vector<double> u = {0.65, 0.55};
  const auto delta = calculate_data_movement(
      kModel, wc, u, BalanceMode::kUtilization, params);
  EXPECT_GE(u[0] + delta[0], params.utilization_floor - 1e-9);
}

TEST(Balance, UtilizationModeRespectsCeiling) {
  BalanceParams params;
  params.utilization_ceiling = 0.70;
  params.max_source_shed = 1.0;
  const std::vector<double> wc = {90000, 90000};
  const std::vector<double> u = {0.95, 0.65};
  const auto delta = calculate_data_movement(
      kModel, wc, u, BalanceMode::kUtilization, params);
  EXPECT_LE(u[1] + delta[1], params.utilization_ceiling + 1e-9);
}

TEST(Balance, UtilizationModeRespectsMaxShed) {
  BalanceParams params;
  params.max_source_shed = 0.05;
  const std::vector<double> wc = {90000, 1000};
  const std::vector<double> u = {0.80, 0.55};
  const auto delta = calculate_data_movement(
      kModel, wc, u, BalanceMode::kUtilization, params);
  EXPECT_GE(delta[0], -params.max_source_shed - 1e-9);
}

TEST(Balance, ReducesSpreadOfEraseEstimates) {
  const std::vector<double> wc = {80000, 30000, 15000, 50000, 10000};
  const std::vector<double> u = {0.7, 0.6, 0.55, 0.65, 0.5};
  auto spread = [&](const std::vector<double>& w) {
    double lo = 1e18;
    double hi = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double ec = kModel.erase_count(w[i], u[i]);
      lo = std::min(lo, ec);
      hi = std::max(hi, ec);
    }
    return hi - lo;
  };
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages);
  std::vector<double> after = wc;
  for (std::size_t i = 0; i < wc.size(); ++i) after[i] += delta[i];
  EXPECT_LT(spread(after), 0.15 * spread(wc));
}

TEST(Balance, FewIterationsStillMakeProgress) {
  BalanceParams params;
  params.iterations = 3;
  const std::vector<double> wc = {80000, 10000};
  const std::vector<double> u = {0.6, 0.6};
  const auto delta = calculate_data_movement(
      kModel, wc, u, BalanceMode::kWritePages, params);
  EXPECT_LT(delta[0], 0.0);
}

TEST(Balance, NeverProducesNegativeWriteLoad) {
  const std::vector<double> wc = {100000, 1, 1, 1};
  const std::vector<double> u = {0.6, 0.6, 0.6, 0.6};
  const auto delta =
      calculate_data_movement(kModel, wc, u, BalanceMode::kWritePages);
  for (std::size_t i = 0; i < wc.size(); ++i) {
    EXPECT_GE(wc[i] + delta[i], -1e-6);
  }
}

class BalanceModeSweep : public ::testing::TestWithParam<BalanceMode> {};

TEST_P(BalanceModeSweep, DeltaSumsToZeroForRandomInputs) {
  std::vector<double> wc;
  std::vector<double> u;
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {  // xorshift
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 12; ++i) {
    wc.push_back(1000.0 + static_cast<double>(next() % 90000));
    u.push_back(0.45 + static_cast<double>(next() % 45) / 100.0);
  }
  const auto delta = calculate_data_movement(kModel, wc, u, GetParam());
  EXPECT_NEAR(total(delta), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Modes, BalanceModeSweep,
                         ::testing::Values(BalanceMode::kWritePages,
                                           BalanceMode::kUtilization));

}  // namespace
}  // namespace edm::core
