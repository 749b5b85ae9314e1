// Channel/die/plane parallel timing model (docs/internals/flash.md
// "Parallel timing model"): per-die command queues, plane interleaving,
// shared per-channel buses, and the flat == 1x1x1 equivalence contract.
//
// The hand-computed expectations below use ctrl=5 us, data=40 us against
// the default array times (read 25 us, program 200 us).  Striping places
// LUN l on channel l % channels and die l % dies(); a fresh device's
// round-robin append sends logical pages 0..N-1 to LUNs 0..N-1 in order,
// which is what makes the numbers below exact.
#include <gtest/gtest.h>

#include <stdexcept>

#include "flash/ssd.h"
#include "util/rng.h"

namespace edm::flash {
namespace {

FlashConfig parallel_config(std::uint32_t channels, std::uint32_t dies,
                            std::uint32_t planes, SimDuration ctrl = 5,
                            SimDuration data = 40) {
  FlashConfig cfg;
  cfg.num_blocks = 256;
  cfg.pages_per_block = 16;
  cfg.geometry = FlashGeometry{channels, dies, planes};
  cfg.bus_ctrl_us = ctrl;
  cfg.bus_data_us = data;
  return cfg;
}

TEST(FlashParallel, PredicateAndDomains) {
  FlashConfig flat;
  EXPECT_FALSE(flat.parallel_timing());
  EXPECT_EQ(flat.allocation_domains(), 1u);

  // Bus delays alone promote even a 1x1x1 device to the timed path.
  FlashConfig bus_only = parallel_config(1, 1, 1);
  EXPECT_TRUE(bus_only.parallel_timing());
  EXPECT_EQ(bus_only.allocation_domains(), 1u);

  // A multi-LUN geometry is parallel even with free buses.
  FlashConfig geom_only = parallel_config(2, 2, 1, 0, 0);
  EXPECT_TRUE(geom_only.parallel_timing());
  EXPECT_EQ(geom_only.allocation_domains(), 4u);
  EXPECT_EQ(geom_only.domain_low_water(), 2u);
}

TEST(FlashParallel, ValidateRejectsBadGeometry) {
  FlashConfig cfg = parallel_config(0, 1, 1);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = parallel_config(1, 0, 1);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = parallel_config(1, 1, 0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // A LUN count that wraps in 32 bits: 65536 x 65536 x 1 would read as
  // 0 LUNs, and so would 2^16 x 2^8 x 2^8.
  cfg = parallel_config(65536, 65536, 1);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = parallel_config(65536, 256, 256);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // Too many domains for the block count: 32 LUNs over 64 blocks leaves
  // two blocks per domain, below the per-domain floor.
  cfg = parallel_config(8, 2, 2);
  cfg.num_blocks = 64;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(FlashParallel, FlatForwardsToUntimedOps) {
  // parallel_timing() == false: the *_at entry points forward to the
  // legacy ops, byte-identical state and durations, `at` ignored.
  FlashConfig cfg;
  cfg.num_blocks = 128;
  cfg.pages_per_block = 16;
  Ssd timed(cfg);
  Ssd untimed(cfg);
  ASSERT_FALSE(timed.parallel_timing());
  const auto logical = static_cast<Lpn>(cfg.logical_pages());
  util::Xoshiro256 rng(7);
  SimTime at = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto lpn = static_cast<Lpn>(rng.next_below(logical - 8));
    at += 1 + (i % 97);
    EXPECT_EQ(timed.write_range_at(at, lpn, 4), untimed.write_range(lpn, 4));
    EXPECT_EQ(timed.read_range_at(at, lpn, 4), untimed.read_range(lpn, 4));
  }
  EXPECT_EQ(timed.stats().erase_count, untimed.stats().erase_count);
  EXPECT_EQ(timed.stats().gc_page_moves, untimed.stats().gc_page_moves);
  EXPECT_EQ(timed.stats().busy_time_us, untimed.stats().busy_time_us);
  EXPECT_TRUE(timed.check_invariants());
}

TEST(FlashParallel, WritesPipelineAcrossDiesOnOneChannel) {
  // 1 channel x 4 dies: the bus serialises the 45 us command+data
  // transfers, the 200 us programs overlap across dies.
  //   p0 xfer [0,45)    program ends 245
  //   p1 xfer [45,90)   program ends 290
  //   p2 xfer [90,135)  program ends 335
  //   p3 xfer [135,180) program ends 380
  Ssd ssd(parallel_config(1, 4, 1));
  EXPECT_EQ(ssd.write_range_at(0, 0, 4), 380u);
}

TEST(FlashParallel, WritesIndependentAcrossChannels) {
  // 4 channels x 1 die each: four fully independent pipelines, so four
  // pages cost exactly one page (45 transfer + 200 program).
  Ssd ssd(parallel_config(4, 1, 1));
  EXPECT_EQ(ssd.write_range_at(0, 0, 4), 245u);
}

TEST(FlashParallel, ReadsSerialiseOnASharedBus) {
  // Reads hold the channel for command (5) and data-out (40) around the
  // 25 us array sense, and the bus is reserved in submission order, so a
  // 4-page read on one channel costs 4 x 70 regardless of die spread.
  Ssd one_channel(parallel_config(1, 4, 1));
  ASSERT_EQ(one_channel.write_range_at(0, 0, 4), 380u);
  one_channel.reset_timeline();
  EXPECT_EQ(one_channel.read_range_at(0, 0, 4), 280u);

  // Across 4 channels the same reads overlap completely.
  Ssd four_channels(parallel_config(4, 1, 1));
  ASSERT_EQ(four_channels.write_range_at(0, 0, 4), 245u);
  four_channels.reset_timeline();
  EXPECT_EQ(four_channels.read_range_at(0, 0, 4), 70u);
}

TEST(FlashParallel, UnmappedReadsStripeAcrossGeometry) {
  // Cold reads (device returns zeroes) land on the LUN the striping
  // would have used, so they still spread across channels.
  Ssd ssd(parallel_config(4, 1, 1));
  EXPECT_EQ(ssd.read_range_at(0, 0, 4), 70u);
}

TEST(FlashParallel, PlanesInterleaveAndArraysSerialise) {
  // 1x1x2: both planes share the channel and the die command register.
  // Two pages pipeline like dies (xfer back to back, programs overlap):
  //   p0 -> plane 0: xfer [0,45),   program ends 245
  //   p1 -> plane 1: xfer [45,90),  program ends 290
  // The next two pages hit the *same* planes and must wait for the
  // in-flight programs -- the per-plane array is the serial resource:
  //   p2 -> plane 0: xfer [90,135),  program 245..445
  //   p3 -> plane 1: xfer [135,180), program 290..490
  Ssd ssd(parallel_config(1, 1, 2));
  EXPECT_EQ(ssd.write_range_at(0, 0, 2), 290u);
  Ssd twin(parallel_config(1, 1, 2));
  EXPECT_EQ(twin.write_range_at(0, 0, 4), 490u);
}

TEST(FlashParallel, ResetTimelineForgetsBusyHorizons) {
  Ssd ssd(parallel_config(1, 4, 1));
  ASSERT_EQ(ssd.write_range_at(0, 0, 4), 380u);
  // Without a reset a time-zero read would queue behind the writes;
  // after reset_timeline() it prices exactly like a fresh device (the
  // mapping and wear state survive -- only the horizons clear).
  ssd.reset_timeline();
  EXPECT_EQ(ssd.read_range_at(0, 0, 4), 280u);
  EXPECT_EQ(ssd.stats().host_page_writes, 4u);
}

TEST(FlashParallel, DispatchIsDeterministic) {
  // Identical command streams on identical devices replay identically:
  // durations, stats, and mapping state.
  const FlashConfig cfg = parallel_config(2, 2, 1);
  Ssd a(cfg);
  Ssd b(cfg);
  util::Xoshiro256 rng_a(21);
  util::Xoshiro256 rng_b(21);
  const auto logical = static_cast<Lpn>(cfg.logical_pages());
  SimTime at = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto la = static_cast<Lpn>(rng_a.next_below(logical - 4));
    const auto lb = static_cast<Lpn>(rng_b.next_below(logical - 4));
    at += 50;
    ASSERT_EQ(a.write_range_at(at, la, 4), b.write_range_at(at, lb, 4));
    ASSERT_EQ(a.read_range_at(at, la, 2), b.read_range_at(at, lb, 2));
  }
  EXPECT_EQ(a.stats().erase_count, b.stats().erase_count);
  EXPECT_EQ(a.stats().gc_page_moves, b.stats().gc_page_moves);
  EXPECT_GT(a.stats().erase_count, 0u);  // GC actually exercised
  EXPECT_TRUE(a.check_invariants());
  EXPECT_TRUE(b.check_invariants());
}

TEST(FlashParallel, GcOccupiesOnlyTheDieItErases) {
  // In-domain GC die occupancy: a write that triggers GC stalls its own
  // plane only.  Zero bus delays isolate the effect -- a concurrent read
  // on the *other* die must then cost exactly the 25 us array sense,
  // even while the first die is mid-erase.
  //
  // Round-robin append alternates domains per host page write, and GC
  // relocations stay in-domain, so consecutively written lpns are pinned
  // to opposite dies for good.
  const FlashConfig cfg = parallel_config(1, 2, 1, 0, 0);
  Ssd ssd(cfg);
  const auto logical = static_cast<Lpn>(cfg.logical_pages());
  for (Lpn p = 0; p < logical; ++p) ssd.write(p);
  SimTime at = 1u << 30;  // far past any prefill horizon
  int gc_writes_probed = 0;
  Lpn prev_lpn = 0;
  for (std::uint32_t i = 1; i < 60000; ++i) {
    const auto lpn = static_cast<Lpn>(i % logical);
    at += 1u << 20;  // idle gaps: horizons never carry between calls
    const SimDuration wrote = ssd.write_range_at(at, lpn, 1);
    if (wrote > kBlockEraseUs && i > 1) {
      // This write stalled on GC.  The previously written lpn sits on
      // the other die; issued at the same submission time it must be
      // untouched by the erase.
      EXPECT_EQ(ssd.read_range_at(at, prev_lpn, 1), kPageReadUs)
          << "GC on one die delayed a read on the other";
      ++gc_writes_probed;
    }
    prev_lpn = lpn;
  }
  ASSERT_GT(gc_writes_probed, 0) << "workload never triggered GC";
  EXPECT_TRUE(ssd.check_invariants());
}

TEST(FlashParallel, WearAccountingConsistentUnderParallelGeometry) {
  FlashConfig cfg = parallel_config(2, 2, 2);
  cfg.num_blocks = 512;  // 8 domains need the wider per-domain reserve
  Ssd ssd(cfg);
  const auto logical = static_cast<Lpn>(cfg.logical_pages());
  util::Xoshiro256 rng(13);
  SimTime at = 0;
  for (int i = 0; i < 30000; ++i) {
    at += 100;
    ssd.write_range_at(at, static_cast<Lpn>(rng.next_below(logical)), 1);
  }
  std::uint64_t sum = 0;
  for (std::uint32_t b = 0; b < cfg.num_blocks; ++b) {
    sum += ssd.block_erases(b);
  }
  EXPECT_EQ(sum, ssd.stats().erase_count);
  EXPECT_GT(ssd.stats().erase_count, 0u);
  EXPECT_GE(ssd.free_blocks(), cfg.allocation_domains() *
                                   (cfg.domain_low_water() - 1));
  EXPECT_TRUE(ssd.check_invariants());
}

}  // namespace
}  // namespace edm::flash
