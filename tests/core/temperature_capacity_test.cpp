// Capacity-bounded temperature tracking (the paper's in-memory metadata
// limit: "we only cache the k hottest objects in memory").  AccessTracker
// sheds the coldest entries of each side at every epoch boundary; the
// tests driven by writes check both sides, those driven by reads the total
// side, which reads alone fill.
#include <gtest/gtest.h>

#include "core/temperature.h"

namespace edm::core {
namespace {

constexpr bool kSides[] = {true, false};  // is_write: writes, then reads

/// Entries a run of one access kind left on each side.
void expect_tracked(const AccessTracker& t, bool writes, std::size_t n) {
  SCOPED_TRACE(writes ? "writes" : "reads");
  EXPECT_EQ(t.tracked_total_objects(), n);
  EXPECT_EQ(t.tracked_write_objects(), writes ? n : 0u);
}

TEST(TemperatureCapacity, UnboundedByDefault) {
  for (const bool writes : kSides) {
    AccessTracker t(/*max_entries_per_map=*/0);
    for (ObjectId oid = 0; oid < 1000; ++oid) t.on_access(oid, 1, writes);
    t.advance_epoch();
    expect_tracked(t, writes, 1000);
  }
}

TEST(TemperatureCapacity, NoOpWhenUnderCapacity) {
  for (const bool writes : kSides) {
    AccessTracker t(10);
    t.on_access(1, 5, writes);
    t.on_access(2, 3, writes);
    t.advance_epoch();
    expect_tracked(t, writes, 2);
    EXPECT_DOUBLE_EQ(t.total_temperature(1), 2.5);
    EXPECT_DOUBLE_EQ(t.total_temperature(2), 1.5);
  }
}

TEST(TemperatureCapacity, KeepsTheHottestEntries) {
  for (const bool writes : kSides) {
    SCOPED_TRACE(writes ? "writes" : "reads");
    AccessTracker t(10);
    for (ObjectId oid = 0; oid < 100; ++oid) {
      t.on_access(oid, static_cast<std::uint32_t>(oid + 1), writes);
    }  // oid 99 hottest
    t.advance_epoch();
    EXPECT_LE(t.tracked_total_objects(), 11u);  // ties may survive one round
    EXPECT_GE(t.tracked_total_objects(), 10u);
    EXPECT_EQ(t.tracked_write_objects(),
              writes ? t.tracked_total_objects() : 0u);
    for (ObjectId oid = 90; oid < 100; ++oid) {
      EXPECT_GT(t.total_temperature(oid), 0.0) << "hot object " << oid;
      EXPECT_EQ(t.write_temperature(oid) > 0.0, writes) << oid;
    }
    EXPECT_EQ(t.total_temperature(5), 0.0);  // cold object gone
    EXPECT_EQ(t.write_temperature(5), 0.0);
  }
}

TEST(TemperatureCapacity, EvictedObjectsCanReheat) {
  for (const bool writes : kSides) {
    SCOPED_TRACE(writes ? "writes" : "reads");
    AccessTracker t(50);
    for (ObjectId oid = 0; oid < 50; ++oid) t.on_access(oid, 100, writes);
    t.on_access(99, 1, writes);  // coldest
    t.advance_epoch();
    EXPECT_EQ(t.total_temperature(99), 0.0);
    EXPECT_EQ(t.write_temperature(99), 0.0);
    t.on_access(99, 500, writes);  // comes back hot, with no history
    EXPECT_DOUBLE_EQ(t.total_temperature(99), 500.0);
    EXPECT_DOUBLE_EQ(t.write_temperature(99), writes ? 500.0 : 0.0);
  }
}

TEST(TemperatureCapacity, AccessTrackerEnforcesAtEpochBoundary) {
  AccessTracker tracker(/*max_entries_per_map=*/16);
  for (ObjectId oid = 0; oid < 200; ++oid) {
    tracker.on_access(oid, static_cast<std::uint32_t>(oid + 1), true);
  }
  EXPECT_EQ(tracker.tracked_write_objects(), 200u);  // amortised
  tracker.advance_epoch();
  EXPECT_LE(tracker.tracked_write_objects(), 17u);
  EXPECT_LE(tracker.tracked_total_objects(), 17u);
  // The hottest survive.
  EXPECT_GT(tracker.write_temperature(199), 0.0);
  EXPECT_EQ(tracker.write_temperature(3), 0.0);
}

TEST(TemperatureCapacity, UnboundedTrackerKeepsEverything) {
  AccessTracker tracker;  // default: unbounded
  for (ObjectId oid = 0; oid < 500; ++oid) tracker.on_access(oid, 1, false);
  tracker.advance_epoch();
  EXPECT_EQ(tracker.tracked_total_objects(), 500u);
}

}  // namespace
}  // namespace edm::core
