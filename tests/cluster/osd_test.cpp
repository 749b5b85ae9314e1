#include "cluster/osd.h"

#include <gtest/gtest.h>

namespace edm::cluster {
namespace {

flash::FlashConfig osd_flash() {
  flash::FlashConfig cfg;
  cfg.num_blocks = 128;
  cfg.pages_per_block = 16;
  return cfg;
}

TEST(Osd, AddAndQueryObject) {
  Osd osd(3, osd_flash());
  EXPECT_EQ(osd.id(), 3u);
  EXPECT_TRUE(osd.add_object(7, 40));
  EXPECT_TRUE(osd.has_object(7));
  EXPECT_EQ(osd.object_pages(7), 40u);
  EXPECT_FALSE(osd.has_object(8));
  EXPECT_EQ(osd.object_pages(8), 0u);
}

TEST(Osd, AddObjectFailsWhenFull) {
  Osd osd(0, osd_flash());
  const auto capacity = osd.capacity_pages();
  EXPECT_TRUE(osd.add_object(1, static_cast<std::uint32_t>(capacity)));
  EXPECT_FALSE(osd.add_object(2, 1));
}

TEST(Osd, WriteCostsDeviceTime) {
  Osd osd(0, osd_flash());
  osd.add_object(1, 10);
  const auto t = osd.write(1, 0, 4);
  EXPECT_EQ(t, 4u * flash::kPageWriteUs);
  EXPECT_EQ(osd.flash_stats().host_page_writes, 4u);
}

TEST(Osd, ReadCostsDeviceTime) {
  Osd osd(0, osd_flash());
  osd.add_object(1, 10);
  osd.write(1, 0, 10);
  EXPECT_EQ(osd.read(1, 2, 3), 3u * flash::kPageReadUs);
}

TEST(Osd, IoIsClampedToObjectSize) {
  Osd osd(0, osd_flash());
  osd.add_object(1, 10);
  // Reading past the end touches only the existing pages.
  EXPECT_EQ(osd.read(1, 8, 100), 2u * flash::kPageReadUs);
  // Fully out of range costs nothing.
  EXPECT_EQ(osd.read(1, 50, 10), 0u);
}

TEST(Osd, RemoveObjectTrimsItsPages) {
  Osd osd(0, osd_flash());
  osd.add_object(1, 20);
  osd.write(1, 0, 20);
  EXPECT_EQ(osd.ssd().valid_pages(), 20u);
  osd.remove_object(1);
  EXPECT_FALSE(osd.has_object(1));
  EXPECT_EQ(osd.ssd().valid_pages(), 0u);
  EXPECT_EQ(osd.flash_stats().trimmed_pages, 20u);
}

TEST(Osd, PopulateWritesEveryAllocatedPage) {
  Osd osd(0, osd_flash());
  osd.add_object(1, 30);
  osd.add_object(2, 50);
  osd.populate_all();
  EXPECT_EQ(osd.flash_stats().host_page_writes, 80u);
  EXPECT_EQ(osd.ssd().valid_pages(), 80u);
}

TEST(Osd, UtilizationTracksStore) {
  Osd osd(0, osd_flash());
  const auto capacity = osd.capacity_pages();
  osd.add_object(1, static_cast<std::uint32_t>(capacity / 2));
  EXPECT_NEAR(osd.utilization(), 0.5, 0.01);
  EXPECT_EQ(osd.free_pages(), capacity - capacity / 2);
}

TEST(Osd, UnknownObjectIoIsFree) {
  Osd osd(0, osd_flash());
  EXPECT_EQ(osd.read(99, 0, 10), 0u);
  EXPECT_EQ(osd.write(99, 0, 10), 0u);
}

}  // namespace
}  // namespace edm::cluster
