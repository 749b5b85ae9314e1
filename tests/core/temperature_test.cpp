// Eq. 6 and Definition 1 on AccessTracker's two temperatures.  Each
// TemperatureTracker test runs once with writes and once with reads:
// writes heat the write and the total temperature alike, reads only the
// total one (SIII.B.5).
#include "core/temperature.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace edm::core {
namespace {

constexpr bool kSides[] = {true, false};  // is_write: writes, then reads

/// After accesses of one kind, the total temperature reads `expected`, and
/// the write temperature reads it too for writes and 0 for reads.
void expect_temp(const AccessTracker& t, ObjectId oid, bool writes,
                 double expected) {
  SCOPED_TRACE(writes ? "writes" : "reads");
  EXPECT_DOUBLE_EQ(t.total_temperature(oid), expected);
  EXPECT_DOUBLE_EQ(t.write_temperature(oid), writes ? expected : 0.0);
}

TEST(TemperatureTracker, UnknownObjectIsCold) {
  AccessTracker t;
  expect_temp(t, 42, true, 0.0);
  t.on_access(1, 8, true);  // sizes the table past 42
  expect_temp(t, 42, true, 0.0);
  expect_temp(t, 1u << 20, true, 0.0);  // past the table
}

TEST(TemperatureTracker, AccumulatesWithinEpoch) {
  for (const bool writes : kSides) {
    AccessTracker t;
    t.on_access(1, 3, writes);
    t.on_access(1, 2, writes);
    expect_temp(t, 1, writes, 5.0);
  }
}

TEST(TemperatureTracker, Eq6RecurrenceExact) {
  // T_k = T_{k-1} / 2 + A_k.
  for (const bool writes : kSides) {
    AccessTracker t;
    t.on_access(1, 8, writes);  // T_0 = 8
    t.advance_epoch();
    t.on_access(1, 2, writes);  // T_1 = 8/2 + 2 = 6
    expect_temp(t, 1, writes, 6.0);
    t.advance_epoch();
    t.on_access(1, 1, writes);  // T_2 = 6/2 + 1 = 4
    expect_temp(t, 1, writes, 4.0);
  }
}

TEST(TemperatureTracker, DefinitionOneClosedForm) {
  // T_k = sum_i A_i / 2^(k-i) over the access history.
  const std::uint32_t a[] = {5, 0, 3, 7};
  double expected = 0;
  for (int i = 0; i < 4; ++i) expected += a[i] / double(1 << (3 - i));
  for (const bool writes : kSides) {
    AccessTracker t;
    for (int k = 0; k < 4; ++k) {
      if (k > 0) t.advance_epoch();
      if (a[k] > 0) t.on_access(9, a[k], writes);
    }
    expect_temp(t, 9, writes, expected);
  }
}

TEST(TemperatureTracker, LazyDecayWithoutAccess) {
  for (const bool writes : kSides) {
    AccessTracker t;
    t.on_access(1, 16, writes);
    for (int i = 0; i < 3; ++i) t.advance_epoch();
    expect_temp(t, 1, writes, 2.0);  // 16 / 2^3
  }
}

TEST(TemperatureTracker, VeryOldEntriesDecayToZero) {
  // Decay stops at 64 epochs: the largest access is still warm after 63
  // halvings and exactly cold after the 64th.
  const std::uint32_t most = std::numeric_limits<std::uint32_t>::max();
  for (const bool writes : kSides) {
    AccessTracker t;
    t.on_access(1, most, writes);
    for (int i = 0; i < 63; ++i) t.advance_epoch();
    expect_temp(t, 1, writes, most / 0x1p63);
    t.advance_epoch();
    expect_temp(t, 1, writes, 0.0);
    for (int i = 0; i < 6; ++i) t.advance_epoch();
    expect_temp(t, 1, writes, 0.0);
  }
}

TEST(TemperatureTracker, IndependentObjects) {
  for (const bool writes : kSides) {
    AccessTracker t;
    t.on_access(1, 4, writes);
    t.on_access(2, 8, writes);
    t.advance_epoch();
    t.on_access(1, 1, writes);
    expect_temp(t, 1, writes, 3.0);
    expect_temp(t, 2, writes, 4.0);
  }
}

TEST(AccessTracker, SeparatesWriteAndTotalTemperature) {
  AccessTracker tracker;
  tracker.on_access(1, 10, /*is_write=*/true);
  tracker.on_access(1, 6, /*is_write=*/false);
  EXPECT_DOUBLE_EQ(tracker.write_temperature(1), 10.0);
  EXPECT_DOUBLE_EQ(tracker.total_temperature(1), 16.0);
}

TEST(AccessTracker, ReadsNeverHeatWriteTemperature) {
  // HDF's A_i is "the write frequency of an object (not including the read
  // operations)" -- SIII.B.5.
  AccessTracker tracker;
  for (int i = 0; i < 100; ++i) tracker.on_access(7, 4, false);
  EXPECT_EQ(tracker.write_temperature(7), 0.0);
  EXPECT_DOUBLE_EQ(tracker.total_temperature(7), 400.0);
}

TEST(AccessTracker, EpochAdvancesBothMaps) {
  AccessTracker tracker;
  tracker.on_access(1, 8, true);
  tracker.advance_epoch();
  EXPECT_DOUBLE_EQ(tracker.write_temperature(1), 4.0);
  EXPECT_DOUBLE_EQ(tracker.total_temperature(1), 4.0);
}

}  // namespace
}  // namespace edm::core
