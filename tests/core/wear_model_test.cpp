#include "core/wear_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace edm::core {
namespace {

TEST(WearModel, RejectsBadParameters) {
  EXPECT_THROW(WearModel(0, 0.28), std::invalid_argument);
  EXPECT_THROW(WearModel(32, -0.1), std::invalid_argument);
  EXPECT_THROW(WearModel(32, 1.0), std::invalid_argument);
}

TEST(WearModel, Eq2KnownValues) {
  // u = (ur - 1) / ln(ur), sigma = 0.
  const WearModel m(32, 0.0);
  EXPECT_NEAR(m.utilization_of_ur(0.5), -0.5 / std::log(0.5), 1e-12);
  EXPECT_NEAR(m.utilization_of_ur(0.1), -0.9 / std::log(0.1), 1e-12);
}

TEST(WearModel, Eq3AddsSigma) {
  const WearModel base(32, 0.0);
  const WearModel shifted(32, 0.28);
  for (double ur : {0.1, 0.3, 0.5, 0.8}) {
    EXPECT_NEAR(shifted.utilization_of_ur(ur),
                base.utilization_of_ur(ur) + 0.28, 1e-12);
  }
}

TEST(WearModel, UtilizationOfUrLimits) {
  const WearModel m(32, 0.28);
  EXPECT_NEAR(m.utilization_of_ur(0.0), 0.28, 1e-9);
  EXPECT_NEAR(m.utilization_of_ur(1.0), 1.28, 1e-9);
  // Near-1 stability (series branch).
  EXPECT_NEAR(m.utilization_of_ur(1.0 - 1e-10), 1.28, 1e-6);
}

TEST(WearModel, UtilizationOfUrMonotone) {
  const WearModel m(32, 0.28);
  double prev = m.utilization_of_ur(0.001);
  for (double ur = 0.01; ur < 1.0; ur += 0.01) {
    const double u = m.utilization_of_ur(ur);
    ASSERT_GT(u, prev);
    prev = u;
  }
}

TEST(WearModel, InversionRoundTrips) {
  const WearModel m(32, 0.28);
  for (double ur = 0.02; ur < WearModel::kMaxUr; ur += 0.03) {
    const double u = m.utilization_of_ur(ur);
    EXPECT_NEAR(m.ur_of_utilization(u), ur, 1e-9) << "ur " << ur;
  }
}

TEST(WearModel, InversionClampsBelowKnee) {
  const WearModel m(32, 0.28);
  // Below sigma, GC is free: F(u) = 0.
  EXPECT_EQ(m.ur_of_utilization(0.0), 0.0);
  EXPECT_EQ(m.ur_of_utilization(0.28), 0.0);
  EXPECT_EQ(m.ur_of_utilization(0.2), 0.0);
}

TEST(WearModel, InversionIsNonDecreasingBitForBit) {
  // Algorithm 1's galloping epsilon search is exact only because F(u)
  // never decreases as u grows -- not even by one ulp.  The bisection
  // follows a fixed path on a predicate monotone in u, so it holds on a
  // dense grid, between ulp neighbours, and across both clamp knees.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double sigma : {0.0, 0.28, 0.6}) {
    const WearModel m(32, sigma);
    double prev = m.ur_of_utilization(0.0);
    for (int i = 1; i <= 17000; ++i) {
      const double u = static_cast<double>(i) * 1e-4;
      const double ur = m.ur_of_utilization(u);
      ASSERT_GE(ur, prev) << "sigma " << sigma << " u " << u;
      ASSERT_LE(m.ur_of_utilization(std::nextafter(u, -inf)), ur)
          << "sigma " << sigma << " u " << u;
      prev = ur;
    }
    for (const double knee :
         {m.utilization_of_ur(1e-12), m.utilization_of_ur(WearModel::kMaxUr)}) {
      double u = knee;
      for (int i = 0; i < 64; ++i) u = std::nextafter(u, -inf);
      prev = m.ur_of_utilization(u);
      for (int i = 0; i < 128; ++i) {
        u = std::nextafter(u, inf);
        const double ur = m.ur_of_utilization(u);
        ASSERT_GE(ur, prev) << "sigma " << sigma << " knee " << knee;
        prev = ur;
      }
    }
  }
}

TEST(WearModel, InversionClampsNearFull) {
  const WearModel m(32, 0.28);
  EXPECT_LE(m.ur_of_utilization(1.5), WearModel::kMaxUr);
  EXPECT_EQ(m.ur_of_utilization(10.0), WearModel::kMaxUr);
}

TEST(WearModel, EraseCountEq1) {
  const WearModel m(32, 0.0);
  // ur = 0: every erase frees a full block of Np pages.
  EXPECT_NEAR(m.erase_count_from_ur(3200, 0.0), 100.0, 1e-9);
  // ur = 0.5: only half the block is net free space.
  EXPECT_NEAR(m.erase_count_from_ur(3200, 0.5), 200.0, 1e-9);
}

TEST(WearModel, EraseCountMonotoneInUtilization) {
  const WearModel m(32, 0.28);
  double prev = m.erase_count(10000, 0.3);
  for (double u = 0.35; u <= 0.95; u += 0.05) {
    const double ec = m.erase_count(10000, u);
    ASSERT_GE(ec, prev - 1e-9) << "u " << u;
    prev = ec;
  }
}

TEST(WearModel, EraseCountLinearInWrites) {
  const WearModel m(32, 0.28);
  const double one = m.erase_count(1000, 0.7);
  EXPECT_NEAR(m.erase_count(3000, 0.7), 3.0 * one, 1e-9);
  EXPECT_EQ(m.erase_count(0, 0.7), 0.0);
}

TEST(WearModel, Below50PercentUtilizationHasNoWearEffect) {
  // The paper's rationale for CDF's source floor: below the Eq. 3 knee,
  // lowering utilization buys (almost) nothing.
  const WearModel m(32, 0.28);
  const double at_50 = m.erase_count(10000, 0.50);
  const double at_30 = m.erase_count(10000, 0.30);
  EXPECT_LT((at_50 - at_30) / at_30, 0.10);
}

class SigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SigmaSweep, InversionConsistentForAnySigma) {
  const WearModel m(32, GetParam());
  for (double u = 0.05; u <= 1.0; u += 0.05) {
    const double ur = m.ur_of_utilization(u);
    ASSERT_GE(ur, 0.0);
    ASSERT_LE(ur, WearModel::kMaxUr);
    if (ur > 1e-9 && ur < WearModel::kMaxUr - 1e-9) {
      ASSERT_NEAR(m.utilization_of_ur(ur), u, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, SigmaSweep,
                         ::testing::Values(0.0, 0.1, 0.2, 0.28, 0.4));

}  // namespace
}  // namespace edm::core
