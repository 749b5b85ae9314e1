// The planning path solves F(u) once per distinct input: SigmaEstimator
// de-duplicates utilizations per candidate sigma, and Algorithm 1 solves F
// once per device in HDF mode, refreshes only the two devices a shift
// touched, and gallops over the epsilon table.  None of that may change a
// result: every test here compares against the straightforward
// implementations in planning_reference.{h,cpp} with exact equality on
// doubles.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/balance.h"
#include "core/sigma_estimator.h"
#include "core/wear_model.h"
#include "planning_reference.h"
#include "util/rng.h"

namespace edm::core {
namespace {

/// One window fed to both the production fit and the reference.
class FitPair {
 public:
  explicit FitPair(std::size_t capacity = 4096)
      : fast_(32, 0.28, capacity), slow_(32, 0.28, capacity) {}

  void observe(double wc, double u, double ec) {
    fast_.observe(wc, u, ec);
    slow_.observe(wc, u, ec);
  }

  /// Checks both fits agree bit for bit and returns the fit.
  double estimate() {
    const double sigma = fast_.estimate();
    EXPECT_EQ(sigma, slow_.estimate());
    return sigma;
  }

 private:
  SigmaEstimator fast_;
  reference::SigmaFit slow_;
};

/// A noisy observation of a device obeying Eq. 4 at `truth`.
void observe_noisy(FitPair& fit, util::Xoshiro256& rng, const WearModel& truth,
                   double u) {
  const double wc = 2000.0 + static_cast<double>(rng.next_below(60000));
  const double noise = 0.8 + 0.4 * rng.next_double();
  fit.observe(wc, u, truth.erase_count(wc, u) * noise);
}

TEST(PlanningEquivalence, SigmaFitWithManyRepeatedUtilizations) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Xoshiro256 rng(seed);
    const WearModel truth(32, 0.5 * rng.next_double());
    // A handful of devices whose utilization barely moves between epochs:
    // the window holds hundreds of observations but few distinct u.
    std::vector<double> levels;
    for (int d = 0; d < 6; ++d) levels.push_back(0.3 + 0.65 * rng.next_double());
    FitPair fit;
    for (int i = 0; i < 300; ++i) {
      observe_noisy(fit, rng, truth, levels[rng.next_below(levels.size())]);
    }
    fit.estimate();
  }
}

TEST(PlanningEquivalence, SigmaFitAcrossRingWrapAround) {
  // Capacity 64, 200 observations: the ring overwrites its oldest slots, so
  // storage order differs from arrival order -- and the error sum is taken
  // in storage order.  Fit after every observation.
  util::Xoshiro256 rng(64);
  const WearModel truth(32, 0.22);
  FitPair fit(/*capacity=*/64);
  for (int i = 0; i < 200; ++i) {
    // Two-decimal utilizations, so some repeat and some do not.
    const double u =
        0.40 + static_cast<double>(rng.next_below(50)) / 100.0;
    observe_noisy(fit, rng, truth, u);
    fit.estimate();
  }
}

TEST(PlanningEquivalence, SigmaFitFollowsARegimeShiftThatMovesTheCoarseBest) {
  util::Xoshiro256 rng(3);
  const WearModel before(32, 0.05);
  const WearModel after(32, 0.45);
  FitPair fit(/*capacity=*/128);
  auto feed = [&](const WearModel& truth, int n) {
    for (int i = 0; i < n; ++i) {
      observe_noisy(fit, rng, truth, 0.50 + 0.45 * rng.next_double());
    }
  };
  feed(before, 128);
  const double early = fit.estimate();
  feed(after, 64);  // half the window replaced
  fit.estimate();
  feed(after, 64);  // all of it
  const double late = fit.estimate();
  // The coarse grid's best moved by more than one grid step, so the
  // hill-climb ran around a different centre.
  EXPECT_GT(late - early, 0.1);
}

TEST(PlanningEquivalence, SigmaFitHillClimbEndsAboveTheGrid) {
  // Data generated at sigma 0.72: the coarse grid stops below 0.6, and the
  // hill-climb walks on from its best while the error keeps falling.
  util::Xoshiro256 rng(72);
  const WearModel truth(32, 0.72);
  FitPair fit;
  for (int i = 0; i < 200; ++i) {
    const double wc = 5000.0 + static_cast<double>(rng.next_below(50000));
    const double u = 0.75 + 0.24 * rng.next_double();
    fit.observe(wc, u, truth.erase_count(wc, u));
  }
  EXPECT_GT(fit.estimate(), 0.6);
}

/// Runs both implementations on one input and checks they agree exactly.
void expect_same_plan(const WearModel& model, const std::vector<double>& wc,
                      const std::vector<double>& u, BalanceMode mode,
                      const BalanceParams& params,
                      reference::ScanCounts* counts = nullptr) {
  const std::vector<double> fast =
      calculate_data_movement(model, wc, u, mode, params);
  const std::vector<double> slow =
      reference::calculate_data_movement(model, wc, u, mode, params, counts);
  EXPECT_EQ(fast, slow) << "n " << wc.size() << " iterations "
                        << params.iterations << " mode "
                        << (mode == BalanceMode::kWritePages ? "HDF" : "CDF");
}

TEST(PlanningEquivalence, Algorithm1MatchesTheLinearScanOnRandomGroups) {
  const WearModel model(32, 0.28);
  reference::ScanCounts counts;
  util::Xoshiro256 rng(2024);
  for (const BalanceMode mode :
       {BalanceMode::kWritePages, BalanceMode::kUtilization}) {
    for (std::size_t n = 2; n <= 16; ++n) {
      for (const int iterations : {1, 2, 3, 7, 41, 500}) {
        std::vector<double> wc(n);
        std::vector<double> u(n);
        for (std::size_t i = 0; i < n; ++i) {
          // Some idle devices (Wc = 0) and some below the Eq. 3 knee.
          wc[i] = rng.next_below(8) == 0
                      ? 0.0
                      : static_cast<double>(rng.next_below(100000));
          u[i] = 0.2 + 0.75 * rng.next_double();
        }
        BalanceParams params;
        params.iterations = iterations;
        expect_same_plan(model, wc, u, mode, params, &counts);
      }
    }
  }
  // Random groups reach the common endings; the next test forces the rest.
  EXPECT_GT(counts.first, 0u);
  EXPECT_GT(counts.middle, 0u);
  EXPECT_GT(counts.capped, 0u);
}

TEST(PlanningEquivalence, Algorithm1MatchesTheLinearScanAtEveryScanEnding) {
  const WearModel model(32, 0.28);
  struct Case {
    const char* name;
    std::vector<double> wc;
    std::vector<double> u;
    BalanceMode mode;
    BalanceParams params;
    std::size_t reference::ScanCounts::*ending;
  };
  BalanceParams floor_only;
  floor_only.max_source_shed = 1.0;
  BalanceParams ceiling;
  ceiling.utilization_ceiling = 0.70;
  ceiling.max_source_shed = 1.0;
  BalanceParams shed;
  shed.max_source_shed = 0.05;
  // No floor, ceiling or shed cap in reach, and a write gap no utilization
  // shift can close: every epsilon leaves the pair unbalanced.
  BalanceParams unbounded;
  unbounded.utilization_floor = 0.0;
  unbounded.utilization_ceiling = 2.0;
  unbounded.max_source_shed = 10.0;
  const std::vector<Case> cases = {
      {"first epsilon", {10010, 10000}, {0.6, 0.6}, BalanceMode::kWritePages,
       {}, &reference::ScanCounts::first},
      {"mid-table", {50000, 10000}, {0.6, 0.6}, BalanceMode::kWritePages, {},
       &reference::ScanCounts::middle},
      {"floor cap", {90000, 1000}, {0.65, 0.55}, BalanceMode::kUtilization,
       floor_only, &reference::ScanCounts::capped},
      {"ceiling cap", {90000, 90000}, {0.95, 0.65}, BalanceMode::kUtilization,
       ceiling, &reference::ScanCounts::capped},
      {"shed cap", {90000, 1000}, {0.80, 0.55}, BalanceMode::kUtilization,
       shed, &reference::ScanCounts::capped},
      {"off the end", {90000, 1000}, {0.65, 0.30}, BalanceMode::kUtilization,
       unbounded, &reference::ScanCounts::off_end},
  };
  for (const Case& c : cases) {
    for (const int iterations : {1, 500}) {
      BalanceParams params = c.params;
      params.iterations = iterations;
      reference::ScanCounts counts;
      expect_same_plan(model, c.wc, c.u, c.mode, params, &counts);
      EXPECT_GT(counts.*c.ending, 0u) << c.name;
    }
  }
}

}  // namespace
}  // namespace edm::core
