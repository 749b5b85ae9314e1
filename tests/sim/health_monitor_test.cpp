// HealthMonitor unit behaviour: median-relative flagging with streak
// debounce and hysteresis, and the scoreability gates (kMinSamples, at
// least two devices), all at the monitor's fixed thresholds.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/health_monitor.h"

namespace edm::sim {
namespace {

/// Enough samples for the EWMA (alpha 0.05) to sit within 0.01% of a new
/// level: 0.95^200 < 1e-4.
constexpr std::uint64_t kSettle = 200;

/// Feeds `n` observations of `latency_us` into one device.
void feed(HealthMonitor& m, OsdId osd, std::uint64_t n,
          SimDuration latency_us) {
  for (std::uint64_t i = 0; i < n; ++i) m.observe(osd, latency_us);
}

std::vector<HealthMonitor::Transition> eval(HealthMonitor& m, SimTime now) {
  std::vector<HealthMonitor::Transition> out;
  m.evaluate(now, out);
  return out;
}

TEST(HealthConfig, ValidationRejectsDegenerateKnobs) {
  HealthConfig cfg;
  cfg.check_interval_us = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  EXPECT_NO_THROW(HealthConfig{}.validate());
}

TEST(HealthMonitor, FlagsTheOutlierAgainstTheFleetMedian) {
  HealthMonitor m(4);
  for (OsdId osd = 0; osd < 3; ++osd) feed(m, osd, kSettle, 100);
  feed(m, 3, kSettle, 1000);  // 10x the median

  EXPECT_TRUE(eval(m, 4000).empty());  // streak 1 of 2
  const auto out = eval(m, 5000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].osd, 3u);
  EXPECT_TRUE(out[0].flagged);
  EXPECT_TRUE(m.flagged(3));
  EXPECT_TRUE(m.any_flagged());
  EXPECT_EQ(m.flagged_count(), 1u);
  EXPECT_EQ(m.first_flagged_at(), 5000u);
  EXPECT_EQ(m.ever_flagged(), std::vector<std::uint32_t>{3});
}

TEST(HealthMonitor, MinSamplesGatesBothMedianAndCandidates) {
  static_assert(HealthMonitor::kMinSamples == 32);
  HealthMonitor m(3);
  feed(m, 0, kSettle, 100);
  feed(m, 1, kSettle, 100);
  // An outlier one sample short of the gate: not scored, however many
  // checks pass.
  feed(m, 2, HealthMonitor::kMinSamples - 1, 1000);
  for (SimTime t = 1000; t <= 4000; t += 1000) {
    EXPECT_TRUE(eval(m, t).empty()) << "check at t=" << t;
  }

  feed(m, 2, 1, 1000);  // now at kMinSamples
  EXPECT_TRUE(eval(m, 5000).empty());  // streak 1 of 2
  const auto out = eval(m, 6000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].osd, 2u);
}

TEST(HealthMonitor, NeverFlagsWithFewerThanTwoScoreableDevices) {
  HealthMonitor m(4);
  // One device alone: no fleet to compare against.
  feed(m, 1, kSettle, 50000);
  // A second device short of the gate does not make it a fleet.
  feed(m, 2, HealthMonitor::kMinSamples - 1, 100);
  for (SimTime t = 1000; t <= 3000; t += 1000) {
    EXPECT_TRUE(eval(m, t).empty());
  }
  EXPECT_FALSE(m.any_flagged());
  EXPECT_EQ(m.checks(), 3u);
}

TEST(HealthMonitor, StreakDebounceDelaysTheFlag) {
  static_assert(HealthMonitor::kFlagStreak == 2);
  HealthMonitor m(2);
  feed(m, 0, kSettle, 100);
  feed(m, 1, kSettle, 1000);

  EXPECT_TRUE(eval(m, 1000).empty());  // streak 1 of 2
  const auto out = eval(m, 2000);      // streak complete
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].osd, 1u);
  EXPECT_EQ(m.first_flagged_at(), 2000u);
}

TEST(HealthMonitor, TransientExcursionResetsTheStreak) {
  HealthMonitor m(2);
  feed(m, 0, kSettle, 100);
  feed(m, 1, kSettle, 1000);
  EXPECT_TRUE(eval(m, 1000).empty());  // streak 1 of 2

  feed(m, 1, kSettle, 100);  // spike over before the next check
  EXPECT_TRUE(eval(m, 2000).empty());  // streak reset, not flagged

  feed(m, 1, kSettle, 1000);  // a real fail-slow device stays slow...
  EXPECT_TRUE(eval(m, 3000).empty());
  EXPECT_EQ(eval(m, 4000).size(), 1u);  // ...and completes a fresh streak
}

TEST(HealthMonitor, HysteresisSeparatesFlagAndClearThresholds) {
  static_assert(HealthMonitor::kFlagRatio == 3.0);
  static_assert(HealthMonitor::kClearRatio == 1.5);
  HealthMonitor m(2);
  feed(m, 0, kSettle, 100);
  feed(m, 1, kSettle, 290);  // 2.9x median: under the flag ratio
  EXPECT_TRUE(eval(m, 1000).empty());
  EXPECT_TRUE(eval(m, 2000).empty());
  EXPECT_FALSE(m.flagged(1));

  feed(m, 1, kSettle, 310);  // 3.1x median: over it
  EXPECT_TRUE(eval(m, 3000).empty());  // streak 1 of 2
  ASSERT_EQ(eval(m, 4000).size(), 1u);
  EXPECT_TRUE(m.flagged(1));

  feed(m, 1, kSettle, 160);  // 1.6x median: under flag, over clear
  EXPECT_TRUE(eval(m, 5000).empty());
  EXPECT_TRUE(m.flagged(1));  // still flagged -- no flapping

  feed(m, 1, kSettle, 140);  // 1.4x median: under the clear ratio
  const auto out = eval(m, 6000);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].osd, 1u);
  EXPECT_FALSE(out[0].flagged);
  EXPECT_FALSE(m.flagged(1));
  EXPECT_EQ(m.flag_events(), 1u);
  EXPECT_EQ(m.clear_events(), 1u);
  // ever_flagged remembers the episode after the clear.
  EXPECT_EQ(m.ever_flagged(), std::vector<std::uint32_t>{1});
}

TEST(HealthMonitor, UniformFleetNeverFlags) {
  HealthMonitor m(8);
  for (OsdId osd = 0; osd < 8; ++osd) {
    feed(m, osd, HealthMonitor::kMinSamples, 100 + osd);
  }
  for (SimTime t = 1000; t <= 10000; t += 1000) {
    EXPECT_TRUE(eval(m, t).empty()) << "check at t=" << t;
  }
  EXPECT_EQ(m.checks(), 10u);
  EXPECT_EQ(m.flag_events(), 0u);
  EXPECT_TRUE(m.ever_flagged().empty());
}

}  // namespace
}  // namespace edm::sim
