#include "sim/wear_probe.h"

#include <gtest/gtest.h>

namespace edm::sim {
namespace {

WearProbeConfig small_probe(double utilization) {
  WearProbeConfig cfg;
  cfg.flash.num_blocks = 512;
  cfg.flash.pages_per_block = 16;
  cfg.utilization = utilization;
  return cfg;
}

TEST(WearProbe, AchievesTargetUtilization) {
  for (double u : {0.4, 0.6, 0.8}) {
    const auto r = run_wear_probe(trace::random_profile(), small_probe(u));
    EXPECT_NEAR(r.utilization, u, 0.03) << "target " << u;
  }
}

TEST(WearProbe, MeasuresSteadyStateGc) {
  const auto r = run_wear_probe(trace::random_profile(), small_probe(0.7));
  EXPECT_GT(r.erases, 0u);
  EXPECT_GT(r.measured_ur, 0.0);
  EXPECT_GT(r.write_amplification, 1.0);
}

TEST(WearProbe, RandomWorkloadTracksEq2) {
  const auto r = run_wear_probe(trace::random_profile(), small_probe(0.7));
  EXPECT_NEAR(r.measured_ur, r.eq2_ur, 0.12);
  EXPECT_GT(r.measured_ur, r.eq3_ur);
}

TEST(WearProbe, SkewedWorkloadFallsBelowEq2) {
  // The Fig. 3 headline: real-world (skewed) workloads have much emptier
  // victim blocks than the uniform model predicts.
  const auto random = run_wear_probe(trace::random_profile(), small_probe(0.7));
  const auto skewed =
      run_wear_probe(trace::profile_by_name("lair62"), small_probe(0.7));
  EXPECT_LT(skewed.measured_ur, random.measured_ur - 0.05);
  EXPECT_LT(skewed.write_amplification, random.write_amplification);
}

TEST(WearProbe, UrGrowsWithUtilization) {
  const auto& profile = trace::profile_by_name("home02");
  const auto sweep =
      sweep_wear_probe(profile, small_probe(0.5), {0.5, 0.7, 0.9});
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_LT(sweep[0].measured_ur, sweep[1].measured_ur);
  EXPECT_LT(sweep[1].measured_ur, sweep[2].measured_ur);
}

TEST(WearProbe, PredictionColumnsConsistent) {
  const auto r = run_wear_probe(trace::random_profile(), small_probe(0.6));
  EXPECT_GT(r.eq2_ur, r.eq3_ur);  // sigma shifts the curve down
  EXPECT_GT(r.eq2_ur, 0.0);
}

TEST(WearProbe, DeterministicForSameSeed) {
  const auto a = run_wear_probe(trace::profile_by_name("home02"),
                                small_probe(0.7));
  const auto b = run_wear_probe(trace::profile_by_name("home02"),
                                small_probe(0.7));
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.measured_ur, b.measured_ur);
}

}  // namespace
}  // namespace edm::sim
