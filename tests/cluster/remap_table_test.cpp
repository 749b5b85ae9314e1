#include "cluster/remap_table.h"

#include <gtest/gtest.h>

#include <optional>

namespace edm::cluster {
namespace {

/// The OSD `oid` is remapped to, or nullopt.  The table has no lookup of
/// its own: Cluster::locate reads the dense location table instead.
std::optional<OsdId> entry(const RemapTable& t, ObjectId oid) {
  std::optional<OsdId> found;
  t.for_each([&](ObjectId o, OsdId osd) {
    if (o == oid) found = osd;
  });
  return found;
}

TEST(RemapTable, EmptyLookup) {
  RemapTable t;
  EXPECT_FALSE(entry(t, 1).has_value());
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST(RemapTable, SetAndLookup) {
  RemapTable t;
  t.set(/*oid=*/5, /*osd=*/3, /*default_home=*/1);
  EXPECT_TRUE(t.contains(5));
  EXPECT_EQ(entry(t, 5), std::optional<OsdId>(3));
  EXPECT_EQ(t.size(), 1u);
}

TEST(RemapTable, MovingBackHomeDropsEntry) {
  RemapTable t;
  t.set(5, 3, 1);
  EXPECT_EQ(t.size(), 1u);
  t.set(5, 1, 1);  // back to the hash home
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(5));
}

TEST(RemapTable, ReMigrationUpdatesInPlace) {
  // The paper's SIII.C point: moving an already-remapped object only
  // updates its entry -- the table does not grow.
  RemapTable t;
  t.set(5, 3, 1);
  t.set(5, 7, 1);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(entry(t, 5), std::optional<OsdId>(7));
}

TEST(RemapTable, UpdateCounterIsLifetime) {
  RemapTable t;
  t.count_update();
  t.count_update();
  EXPECT_EQ(t.updates(), 2u);
}

TEST(RemapTable, ForEachVisitsAllEntries) {
  RemapTable t;
  t.set(1, 4, 0);
  t.set(2, 8, 0);
  int count = 0;
  t.for_each([&](ObjectId oid, OsdId osd) {
    ++count;
    EXPECT_TRUE((oid == 1 && osd == 4) || (oid == 2 && osd == 8));
  });
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace edm::cluster
