#include "flash/config.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace edm::flash {
namespace {

TEST(FlashConfig, DefaultsAreValid) {
  FlashConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(FlashConfig, PaperGeometry) {
  FlashConfig cfg;  // 4 KB pages, 32 pages/block = 128 KB blocks
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(cfg.block_bytes(), 128u * 1024u);
  EXPECT_EQ(kPageReadUs, 25u);
  EXPECT_EQ(kPageWriteUs, 200u);
  EXPECT_EQ(kBlockEraseUs, 2000u);
}

TEST(FlashConfig, PhysicalPages) {
  FlashConfig cfg;
  cfg.num_blocks = 100;
  cfg.pages_per_block = 32;
  EXPECT_EQ(cfg.physical_pages(), 3200u);
}

TEST(FlashConfig, LogicalPagesRespectsOverProvisioning) {
  FlashConfig cfg;
  cfg.num_blocks = 1000;
  cfg.op_ratio = 0.10;
  const auto logical = cfg.logical_pages();
  EXPECT_LE(logical,
            static_cast<std::uint64_t>(0.9 * cfg.physical_pages()) + 1);
  EXPECT_GT(logical, 0u);
}

TEST(FlashConfig, LogicalPagesAlwaysLeavesGcReserve) {
  FlashConfig cfg;
  cfg.num_blocks = 8;
  cfg.op_ratio = 0.0;  // even with zero OP the reserve must hold
  const auto logical = cfg.logical_pages();
  EXPECT_LE(logical,
            cfg.physical_pages() - (kGcLowWater + 1) * cfg.pages_per_block);
}

TEST(FlashConfig, ValidateRejectsBadGeometry) {
  FlashConfig cfg;
  cfg.pages_per_block = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = FlashConfig{};
  cfg.num_blocks = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = FlashConfig{};
  cfg.op_ratio = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = FlashConfig{};
  cfg.op_ratio = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FlashConfig, ValidateRejectsDeviceTooSmall) {
  FlashConfig cfg;
  cfg.num_blocks = 4;  // fewer than kGcLowWater + 1 blocks of slack
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FlashConfig, WithLogicalCapacityMeetsRequest) {
  FlashConfig base;
  for (std::uint64_t mib : {1ull, 16ull, 100ull, 512ull}) {
    const auto sized = base.with_logical_capacity(mib << 20);
    EXPECT_GE(sized.logical_bytes(), mib << 20) << mib << " MiB";
    EXPECT_NO_THROW(sized.validate());
  }
}

TEST(FlashConfig, WithLogicalCapacityIsTight) {
  FlashConfig base;
  const auto sized = base.with_logical_capacity(64 << 20);
  // Should not over-allocate by more than a few blocks + OP share.
  const double op_share = 1.0 / (1.0 - base.op_ratio);
  EXPECT_LE(static_cast<double>(sized.physical_pages()) * kPageSize,
            (64 << 20) * op_share * 1.10 + 8.0 * base.block_bytes());
}

}  // namespace
}  // namespace edm::flash
