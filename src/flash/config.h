// Flash device geometry and timing configuration.
//
// The constants and defaults follow the paper's setup (SIV): 4 KB pages,
// 128 KB blocks (32 pages/block), page read 25 us, page write 200 us,
// block erase 2 ms, page-level FTL with greedy garbage collection.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/types.h"

namespace edm::flash {

/// Bytes per flash page, the read/program unit (paper SIV: 4 KB).
inline constexpr std::uint32_t kPageSize = 4096;
static_assert(std::has_single_bit(kPageSize),
              "byte-to-page mapping shifts by log2(kPageSize)");

/// Garbage collection starts when the free-block pool drops below this
/// many blocks, and runs until it is back above it.
inline constexpr std::uint32_t kGcLowWater = 4;
static_assert(kGcLowWater >= 2, "GC needs a relocation destination");

/// Device timing (simulated microseconds, paper SIV): page read, page
/// program, block erase.
inline constexpr SimDuration kPageReadUs = 25;
inline constexpr SimDuration kPageWriteUs = 200;
inline constexpr SimDuration kBlockEraseUs = 2000;

/// Internal-parallelism geometry: channels x dies/channel x planes/die.
/// The unit of parallel timing is one plane (a "LUN" here): every LUN has
/// its own array timeline, every die serialises command acceptance across
/// its planes, and every channel serialises bus transfers across its dies.
/// The flat paper model is the 1x1x1 geometry with zero bus delays.
///
/// Striping (documented in docs/internals/flash.md): physical block b
/// belongs to LUN b % luns(); LUN l sits on channel l % channels and on
/// die l % dies() (channel-first order, so consecutive LUNs alternate
/// channels before doubling up on a die).
struct FlashGeometry {
  std::uint32_t channels = 1;
  std::uint32_t dies_per_channel = 1;
  std::uint32_t planes_per_die = 1;

  std::uint32_t dies() const { return channels * dies_per_channel; }
  std::uint32_t luns() const { return dies() * planes_per_die; }
  bool flat() const { return luns() == 1; }
};

struct FlashConfig {
  /// Pages per erase block.  32 x 4 KB = 128 KB blocks, as in the paper.
  std::uint32_t pages_per_block = 32;

  /// Total physical blocks in the device.
  std::uint32_t num_blocks = 2048;

  /// Over-provisioning ratio: fraction of physical pages hidden from the
  /// logical address space.  Commodity SSDs reserve ~7%.
  double op_ratio = 0.07;

  /// Internal-parallelism geometry (channels x dies x planes).  The flat
  /// default (1x1x1 with zero bus delays) is byte-identical to the paper's
  /// serial model; any larger geometry -- or a non-zero bus delay --
  /// switches the device onto the timed dispatch path (per-die command
  /// queues, plane interleaving, per-LUN allocation domains, multi-stream
  /// GC).  See docs/internals/flash.md "Parallel timing model".
  FlashGeometry geometry;

  /// Shared per-channel bus delays (simulated microseconds): `bus_ctrl_us`
  /// is charged per command (read command issue, write command+address),
  /// `bus_data_us` per page transferred over the channel (data-out after an
  /// array read, data-in before a program).  EagleTree's reference config
  /// uses 5 / 100; both 0 keeps even a 1x1x1 geometry on the flat path.
  SimDuration bus_ctrl_us = 0;
  SimDuration bus_data_us = 0;

  /// True when this device uses the timed parallel dispatch path: a
  /// multi-LUN geometry, or bus delays that make even one LUN a pipeline.
  bool parallel_timing() const {
    return !geometry.flat() || bus_ctrl_us > 0 || bus_data_us > 0;
  }

  /// Block-allocation domains (one per LUN under parallel timing, one for
  /// the whole device otherwise).  Physical block b belongs to domain
  /// b % allocation_domains(); each domain keeps its own log head, free
  /// pool and GC stream, so GC only ever occupies the LUN it erases.
  std::uint32_t allocation_domains() const {
    return parallel_timing() ? geometry.luns() : 1;
  }

  /// Per-domain GC low-water mark.  The flat device uses kGcLowWater
  /// verbatim; parallel domains divide it (floored at 2 so every domain
  /// always has a relocation destination plus one block of slack).
  std::uint32_t domain_low_water() const {
    const std::uint32_t domains = allocation_domains();
    if (domains <= 1) return kGcLowWater;
    return std::max<std::uint32_t>(2, kGcLowWater / domains);
  }

  /// Hot/cold separation: when true, GC relocations are appended to their
  /// own open block instead of the host log head.  Mixing relocated (cold,
  /// long-lived) pages into the hot write stream is what drags the victim
  /// valid ratio up under skewed workloads; a separate GC stream is the
  /// classic FTL countermeasure.  Off by default -- the paper's page-level
  /// FTL (flashsim-style) does not separate.
  bool separate_gc_stream = false;

  /// Victim selection policy.  kGreedy (the paper's assumption) always
  /// erases the block with the fewest valid pages.  kCostBenefit weighs
  /// reclaimable space against data age (Kawaguchi's score
  /// age * (1-u)/(2u)) over a deterministic sample of candidates -- it
  /// avoids repeatedly churning blocks that just stopped being written.
  enum class GcPolicy : std::uint8_t { kGreedy = 0, kCostBenefit = 1 };
  GcPolicy gc_policy = GcPolicy::kGreedy;

  std::uint64_t physical_pages() const {
    return static_cast<std::uint64_t>(num_blocks) * pages_per_block;
  }

  /// Pages exposed to the host.  Rounded down so at least kGcLowWater + 1
  /// blocks worth of slack always exists.
  std::uint64_t logical_pages() const;

  std::uint64_t logical_bytes() const { return logical_pages() * kPageSize; }
  std::uint64_t block_bytes() const {
    return static_cast<std::uint64_t>(pages_per_block) * kPageSize;
  }

  /// Throws std::invalid_argument when the geometry is unusable (e.g. no
  /// over-provisioned slack for GC to make progress).
  void validate() const;

  /// Returns a config with num_blocks chosen so that logical capacity is at
  /// least `bytes` (other fields copied from *this).
  FlashConfig with_logical_capacity(std::uint64_t bytes) const;
};

}  // namespace edm::flash
