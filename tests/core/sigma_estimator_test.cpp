#include "core/sigma_estimator.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/wear_model.h"
#include "util/rng.h"

namespace edm::core {
namespace {

TEST(SigmaEstimator, RejectsBadConstruction) {
  EXPECT_THROW(SigmaEstimator(0), std::invalid_argument);
  EXPECT_THROW(SigmaEstimator(32, 0.28, 0), std::invalid_argument);
}

TEST(SigmaEstimator, ReturnsInitialWithoutData) {
  const SigmaEstimator est(32, 0.28);
  EXPECT_DOUBLE_EQ(est.estimate(), 0.28);
}

TEST(SigmaEstimator, IgnoresSignalFreeObservations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  SigmaEstimator est(32);
  est.observe(0.0, 0.6, 100.0);    // no writes
  est.observe(1000.0, 0.6, 0.0);   // no erases
  est.observe(1000.0, 1.5, 50.0);  // nonsense utilization
  // Non-finite values pass every ordered comparison guard (NaN <= 0 and
  // NaN > 1 are both false), so they need their own.
  est.observe(nan, 0.6, 50.0);
  est.observe(inf, 0.6, 50.0);
  est.observe(1000.0, nan, 50.0);
  est.observe(1000.0, inf, 50.0);
  est.observe(1000.0, 0.6, nan);
  est.observe(1000.0, 0.6, inf);
  EXPECT_EQ(est.observations(), 0u);

  // One such observation used to turn a clean fit into 0.0.
  const WearModel model(32, 0.28);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    const double wc = 5000.0 + static_cast<double>(rng.next_below(50000));
    const double u = 0.5 + rng.next_double() * 0.4;
    est.observe(wc, u, model.erase_count(wc, u));
  }
  const double clean = est.estimate();
  EXPECT_NEAR(clean, 0.28, 0.01);
  est.observe(nan, 0.7, 100.0);
  est.observe(inf, 0.7, 100.0);
  est.observe(1000.0, 0.7, nan);
  est.observe(1000.0, nan, 100.0);
  EXPECT_EQ(est.observations(), 20u);
  EXPECT_EQ(est.estimate(), clean);
}

TEST(SigmaEstimator, RecoversKnownSigmaFromCleanData) {
  for (double truth : {0.0, 0.15, 0.28, 0.40}) {
    const WearModel model(32, truth);
    SigmaEstimator est(32, 0.28);
    util::Xoshiro256 rng(7);
    for (int i = 0; i < 100; ++i) {
      const double wc = 5000.0 + static_cast<double>(rng.next_below(50000));
      const double u = 0.45 + rng.next_double() * 0.40;
      est.observe(wc, u, model.erase_count(wc, u));
    }
    EXPECT_NEAR(est.estimate(), truth, 0.01) << "truth " << truth;
  }
}

TEST(SigmaEstimator, RobustToMultiplicativeNoise) {
  const double truth = 0.25;
  const WearModel model(32, truth);
  SigmaEstimator est(32);
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 500; ++i) {
    const double wc = 5000.0 + static_cast<double>(rng.next_below(50000));
    const double u = 0.50 + rng.next_double() * 0.35;
    const double noise = 0.9 + 0.2 * rng.next_double();  // +-10%
    est.observe(wc, u, model.erase_count(wc, u) * noise);
  }
  EXPECT_NEAR(est.estimate(), truth, 0.05);
}

TEST(SigmaEstimator, WindowEvictsOldRegime) {
  // Workload drift: after the window fills with new-regime data, the old
  // sigma stops influencing the fit.
  const WearModel old_regime(32, 0.05);
  const WearModel new_regime(32, 0.35);
  SigmaEstimator est(32, 0.28, /*capacity=*/64);
  util::Xoshiro256 rng(13);
  auto feed = [&](const WearModel& model, int n) {
    for (int i = 0; i < n; ++i) {
      const double wc = 10000.0 + static_cast<double>(rng.next_below(20000));
      const double u = 0.55 + rng.next_double() * 0.30;
      est.observe(wc, u, model.erase_count(wc, u));
    }
  };
  feed(old_regime, 64);
  EXPECT_NEAR(est.estimate(), 0.05, 0.02);
  feed(new_regime, 64);  // fully replaces the ring
  EXPECT_NEAR(est.estimate(), 0.35, 0.02);
}

TEST(SigmaEstimator, LowUtilizationDataIsUninformative) {
  // Below every candidate sigma's knee all models predict the same erases,
  // so the fit cannot distinguish sigmas -- it must not crash or return
  // out-of-range values.
  SigmaEstimator est(32);
  const WearModel model(32, 0.28);
  for (int i = 0; i < 50; ++i) {
    est.observe(10000.0, 0.10, model.erase_count(10000.0, 0.10));
  }
  const double sigma = est.estimate();
  EXPECT_GE(sigma, 0.0);
  EXPECT_LE(sigma, 0.6);
}

}  // namespace
}  // namespace edm::core
