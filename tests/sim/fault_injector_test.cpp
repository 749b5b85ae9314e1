// FaultInjector + RetryPolicy unit behaviour: plan validation, seeded
// determinism of the transient-error stream, and capped backoff growth.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/retry_policy.h"

namespace edm::sim {
namespace {

TEST(FaultPlan, EmptyDetection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.transient_error_rate = 0.1;
  EXPECT_FALSE(plan.empty());

  FaultPlan scheduled;
  scheduled.fail(0, 1000);
  EXPECT_FALSE(scheduled.empty());

  FaultPlan fraction;
  fraction.fail_at_fraction(0, 0.5);
  EXPECT_FALSE(fraction.empty());

  FaultPlan per_osd;
  per_osd.per_osd_error_rates = {0.0, 0.0};
  EXPECT_TRUE(per_osd.empty());
  per_osd.per_osd_error_rates[1] = 0.2;
  EXPECT_FALSE(per_osd.empty());
}

TEST(FaultPlan, RejectsUnsortedEvents) {
  FaultPlan plan;
  plan.fail(0, 2000).rebuild(0, 1000);  // out of order
  EXPECT_THROW(plan.validate(4), std::invalid_argument);

  FaultPlan fractions;
  fractions.fail_at_fraction(0, 0.5).fail_at_fraction(1, 0.25);
  EXPECT_THROW(fractions.validate(4), std::invalid_argument);
}

TEST(FaultPlan, RejectsOutOfRangeOsd) {
  FaultPlan plan;
  plan.fail(7, 1000);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(8));

  FaultPlan fraction;
  fraction.fail_at_fraction(7, 0.5);
  EXPECT_THROW(fraction.validate(4), std::invalid_argument);
  EXPECT_NO_THROW(fraction.validate(8));
}

TEST(FaultPlan, RejectsErrorRatesOutsideUnitInterval) {
  FaultPlan plan;
  plan.transient_error_rate = 1.5;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan.transient_error_rate = -0.1;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan.transient_error_rate = 1.0;
  EXPECT_NO_THROW(plan.validate(4));

  FaultPlan per_osd;
  per_osd.per_osd_error_rates = {0.5, 2.0};
  EXPECT_THROW(per_osd.validate(4), std::invalid_argument);
}

TEST(FaultPlan, RejectsMoreRatesThanDevices) {
  FaultPlan plan;
  plan.per_osd_error_rates = {0.1, 0.1, 0.1};
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(3));
}

TEST(FaultPlan, SortedEventsAccepted) {
  FaultPlan plan;
  plan.fail(1, 1000).fail(2, 1000).rebuild(1, 5000);  // tie at t=1000 is ok
  plan.fail_at_fraction(1, 0.25).fail_at_fraction(2, 0.25);
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultInjector, ConsumesScheduledEventsInOrder) {
  FaultPlan plan;
  plan.fail(3, 100).rebuild(3, 900);
  FaultInjector injector(plan, 8);
  ASSERT_TRUE(injector.has_pending());
  EXPECT_EQ(injector.peek().at, 100u);
  const FaultEvent first = injector.pop();
  EXPECT_EQ(first.osd, 3u);
  EXPECT_EQ(first.kind, FaultEvent::Kind::kFail);
  ASSERT_TRUE(injector.has_pending());
  const FaultEvent second = injector.pop();
  EXPECT_EQ(second.at, 900u);
  EXPECT_EQ(second.kind, FaultEvent::Kind::kRebuild);
  EXPECT_FALSE(injector.has_pending());
}

TEST(FaultInjector, SameSeedSameTransientStream) {
  FaultPlan plan;
  plan.transient_error_rate = 0.3;
  plan.seed = 42;
  FaultInjector a(plan, 4);
  FaultInjector b(plan, 4);
  std::vector<bool> stream_a, stream_b;
  for (int i = 0; i < 5000; ++i) {
    stream_a.push_back(a.transient_error(static_cast<OsdId>(i % 4)));
    stream_b.push_back(b.transient_error(static_cast<OsdId>(i % 4)));
  }
  EXPECT_EQ(stream_a, stream_b);
  EXPECT_EQ(a.transient_errors(), b.transient_errors());
  EXPECT_GT(a.transient_errors(), 0u);
  EXPECT_EQ(a.samples_drawn(), 5000u);
}

TEST(FaultInjector, DifferentSeedDifferentStream) {
  FaultPlan plan;
  plan.transient_error_rate = 0.5;
  plan.seed = 1;
  FaultPlan other = plan;
  other.seed = 2;
  FaultInjector a(plan, 2);
  FaultInjector b(other, 2);
  bool diverged = false;
  for (int i = 0; i < 5000 && !diverged; ++i) {
    diverged = a.transient_error(0) != b.transient_error(0);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, ZeroRateDrawsNothing) {
  FaultPlan plan;
  plan.fail(0, 100);  // scheduled events only, no transient errors
  FaultInjector injector(plan, 4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.transient_error(static_cast<OsdId>(i % 4)));
  }
  // The fast path must not advance the RNG: zero draws, zero errors.
  EXPECT_EQ(injector.samples_drawn(), 0u);
  EXPECT_EQ(injector.transient_errors(), 0u);
}

TEST(FaultInjector, PerOsdRatesOverrideTheDefault) {
  FaultPlan plan;
  plan.transient_error_rate = 1.0;   // every draw is a hit...
  plan.per_osd_error_rates = {0.0};  // ...except on OSD 0
  FaultInjector injector(plan, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.transient_error(0));
    EXPECT_TRUE(injector.transient_error(1));
  }
  EXPECT_EQ(injector.transient_errors(), 100u);
}

TEST(FaultPlan, RejectsFailSlowFactorBelowOne) {
  FaultPlan plan;
  plan.slow(0, 1000, 0.5);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  FaultPlan ok;
  ok.slow(0, 1000, 1.0);  // factor 1 = no-op slowdown, but legal
  EXPECT_NO_THROW(ok.validate(4));
}

TEST(FaultPlan, RejectsStallRateOutsideUnitInterval) {
  FaultPlan plan;
  plan.slow(0, 1000, 2.0, 1.5, 500);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan.events[0].stall_rate = -0.1;
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  plan.events[0].stall_rate = 1.0;
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultPlan, RejectsFailSlowEventsOnOutOfRangeOsd) {
  FaultPlan plan;
  plan.slow(9, 1000, 2.0);
  EXPECT_THROW(plan.validate(8), std::invalid_argument);
  FaultPlan rec;
  rec.recover(9, 1000);
  EXPECT_THROW(rec.validate(8), std::invalid_argument);
}

TEST(FaultInjector, DegradeMultipliesUntilRecover) {
  FaultPlan plan;
  plan.slow(2, 100, 3.0).recover(2, 900);
  FaultInjector injector(plan, 4);
  EXPECT_FALSE(injector.any_slow());
  EXPECT_EQ(injector.degrade(2, 200), 200u);  // identity before onset

  injector.apply_slowdown(injector.pop());
  EXPECT_TRUE(injector.any_slow());
  EXPECT_TRUE(injector.osd_slow(2));
  EXPECT_FALSE(injector.osd_slow(1));
  EXPECT_EQ(injector.degrade(2, 200), 600u);
  EXPECT_EQ(injector.degrade(1, 200), 200u);  // healthy peers untouched

  injector.apply_recover(injector.pop().osd);
  EXPECT_FALSE(injector.any_slow());
  EXPECT_EQ(injector.degrade(2, 200), 200u);
  EXPECT_EQ(injector.stalls_injected(), 0u);  // stall_rate 0: no stream use
}

TEST(FaultInjector, StallStreamIsSeededAndDeterministic) {
  FaultPlan plan;
  plan.slow(0, 100, 1.0, 0.5, 700);  // stalls only, no multiplier
  FaultInjector a(plan, 2);
  FaultInjector b(plan, 2);
  a.apply_slowdown(a.pop());
  b.apply_slowdown(b.pop());
  std::vector<SimDuration> stream_a, stream_b;
  for (int i = 0; i < 2000; ++i) {
    stream_a.push_back(a.degrade(0, 100));
    stream_b.push_back(b.degrade(0, 100));
  }
  EXPECT_EQ(stream_a, stream_b);
  EXPECT_GT(a.stalls_injected(), 0u);
  EXPECT_EQ(a.stalls_injected(), b.stalls_injected());
  // Every degraded service is either untouched or exactly one stall long.
  for (const SimDuration s : stream_a) {
    EXPECT_TRUE(s == 100u || s == 800u) << s;
  }
}

TEST(FaultInjector, StallStreamNeverShiftsTheTransientStream) {
  // Adding a stalling slowdown to a plan must not change which requests
  // draw transient errors: the two stochastic streams are independent
  // generators off the same plan seed.
  FaultPlan errors_only;
  errors_only.transient_error_rate = 0.3;
  errors_only.seed = 17;
  FaultPlan with_stalls = errors_only;
  with_stalls.slow(1, 100, 2.0, 0.9, 400);

  FaultInjector a(errors_only, 4);
  FaultInjector b(with_stalls, 4);
  b.apply_slowdown(b.pop());
  std::vector<bool> stream_a, stream_b;
  for (int i = 0; i < 2000; ++i) {
    stream_a.push_back(a.transient_error(static_cast<OsdId>(i % 4)));
    b.degrade(1, 100);  // interleaved stall draws between error draws
    stream_b.push_back(b.transient_error(static_cast<OsdId>(i % 4)));
  }
  EXPECT_EQ(stream_a, stream_b);
  EXPECT_GT(b.stalls_injected(), 0u);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyThenCaps) {
  EXPECT_EQ(RetryPolicy::backoff_us(1), 500u);
  EXPECT_EQ(RetryPolicy::backoff_us(2), 1000u);
  EXPECT_EQ(RetryPolicy::backoff_us(3), 2000u);
  EXPECT_EQ(RetryPolicy::backoff_us(8), 64000u);
  EXPECT_EQ(RetryPolicy::backoff_us(9), 100000u);  // capped (would be 128000)
  EXPECT_EQ(RetryPolicy::backoff_us(40), 100000u);
}

TEST(RetryPolicy, ExhaustionAtMaxAttempts) {
  RetryPolicy retry;
  retry.max_attempts = 3;
  EXPECT_FALSE(retry.exhausted(0));
  EXPECT_FALSE(retry.exhausted(2));
  EXPECT_TRUE(retry.exhausted(3));
  EXPECT_TRUE(retry.exhausted(4));
}

TEST(RetryPolicy, ValidationRejectsDegenerateKnobs) {
  RetryPolicy retry;
  retry.max_attempts = 0;
  EXPECT_THROW(retry.validate(), std::invalid_argument);

  EXPECT_NO_THROW(RetryPolicy{}.validate());
}

}  // namespace
}  // namespace edm::sim
