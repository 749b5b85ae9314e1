// NAND flash SSD simulator with a page-level FTL (Kawaguchi-style mapping,
// the scheme the paper's OSDs run) and greedy garbage collection.
//
// Behavioural model:
//  * Reads and writes are page-granular; the host addresses logical pages.
//  * Writes are out-of-place: the old physical page is invalidated and the
//    data is appended to the open block (log-structured).
//  * When the free-block pool drops below the low-water mark, GC repeatedly
//    erases the full block with the fewest valid pages, first relocating its
//    valid pages to the log head.  GC time is charged to the host write that
//    triggered it -- this is the "GC blocks normal I/O" effect the paper's
//    load model is built on.
//  * trim() invalidates pages without writing, used when an object migrates
//    away from a device.
//
// All operations return their service time so a discrete-event layer can
// queue them; the device itself is passive (no internal clock).
//
// Thread-safety: none -- each Ssd belongs to one Osd and is driven by one
// Simulator thread; concurrent runs get disjoint devices.
#pragma once

#include <cstdint>
#include <vector>

#include "flash/config.h"
#include "flash/stats.h"
#include "flash/victim_queue.h"
#include "util/divisor.h"
#include "util/packed.h"
#include "util/types.h"

namespace edm::telemetry {
class Recorder;
class Counter;
}  // namespace edm::telemetry

namespace edm::flash {

class Ssd {
 public:
  explicit Ssd(FlashConfig config);

  /// Reads one logical page.  Unmapped pages still cost a page read (the
  /// device returns zeroes); this matches reading pre-created sparse files.
  SimDuration read(Lpn lpn);

  /// Writes one logical page, running GC first if the pool is low.  The
  /// returned duration includes any GC stall incurred.
  SimDuration write(Lpn lpn);

  /// Invalidates one logical page if mapped.  Treated as a metadata-only
  /// operation (zero device time), like an ATA TRIM.
  SimDuration trim(Lpn lpn);

  /// Range fast paths, behaviourally identical to calling the per-page
  /// operation `pages` times (same GC trigger points, same mapping state,
  /// same stats) but with the bookkeeping batched: reads fold into pure
  /// arithmetic, and writes hoist the GC low-water check over stretches the
  /// free pool provably covers (docs/internals/flash.md).  The returned
  /// duration is the serial sum of the per-page durations.
  SimDuration read_range(Lpn first, std::uint32_t pages);
  SimDuration write_range(Lpn first, std::uint32_t pages);
  SimDuration trim_range(Lpn first, std::uint32_t pages);

  /// Timed range ops for the parallel dispatch path: the caller supplies
  /// the absolute device time the request reaches the device, and the
  /// returned duration is completion - `at`, including any wait on busy
  /// channel buses, die command queues, plane arrays, or in-domain GC.
  /// On a flat device (parallel_timing() == false) these forward to the
  /// untimed ops above, so callers can use them unconditionally -- the
  /// flat path stays byte-identical to the paper's model.
  ///
  /// Submission times must be non-decreasing across calls (the DES pops
  /// events in time order, so every caller satisfies this for free).
  SimDuration read_range_at(SimTime at, Lpn first, std::uint32_t pages);
  SimDuration write_range_at(SimTime at, Lpn first, std::uint32_t pages);

  /// Whether this device runs the timed parallel dispatch path.
  bool parallel_timing() const { return parallel_; }

  /// Forgets all channel/die/plane busy horizons (the mapping and wear
  /// state stay).  Called when the measured window starts so warm-up
  /// traffic cannot leak into run timing.
  void reset_timeline();

  bool is_mapped(Lpn lpn) const { return l2p_.get(lpn) != l2p_.max_value(); }

  /// Live data as a fraction of *physical* capacity -- the "u" that drives
  /// GC efficiency (paper Eq. 2/3 territory).
  double physical_utilization() const;

  /// Live data as a fraction of *logical* capacity -- what a file system
  /// observes as disk usage.
  double logical_utilization() const;

  std::uint64_t valid_pages() const { return valid_pages_; }
  std::uint32_t free_blocks() const;

  const FlashConfig& config() const { return config_; }
  const FlashStats& stats() const { return stats_; }

  /// Zeroes the counters while keeping the mapping state.  Used after the
  /// steady-state pre-fill so measurements exclude the warm-up (paper SIV:
  /// "to skip the cold-start ... dummy data ... are first written").
  void reset_stats() { stats_ = FlashStats{}; }

  /// Writes every logical page once in LPN order: the paper's dummy-data
  /// fill.  Returns total device time consumed.
  SimDuration prefill();

  /// Per-block wear distribution (lifetime, not reset by reset_stats):
  /// greedy GC concentrates erases on the blocks that happen to host hot
  /// data, so the device-internal spread shows how much a real FTL's
  /// static wear levelling would have to fix.
  struct BlockWear {
    std::uint64_t max_erases = 0;
    std::uint64_t min_erases = 0;
    double mean_erases = 0.0;
    double rsd = 0.0;  // stddev/mean across blocks
  };
  BlockWear block_wear() const;
  std::uint64_t block_erases(std::uint32_t block) const {
    return block_erases_[block];
  }

  /// Internal-consistency audit used by tests: recomputes valid counts from
  /// the mapping and cross-checks every block's bookkeeping.  Returns true
  /// when consistent.
  bool check_invariants() const;

  /// Hooks this device into a run's telemetry (GC spans on the device's
  /// OSD track, cluster-wide GC counters).  The recorder supplies the DES
  /// clock; this device is passive and has none.  Null detaches.
  void attach_telemetry(telemetry::Recorder* recorder,
                        std::uint32_t device_id);

 private:
  std::uint32_t block_of(Ppn ppn) const { return block_div_.div(ppn); }

  /// Block-allocation domain of a physical block (block id modulo the
  /// domain count; always 0 on a flat device).
  std::uint32_t domain_of(std::uint32_t block) const {
    return domain_div_.mod(block);
  }
  /// Dense per-domain block index (used by the per-domain victim queues).
  std::uint32_t local_of(std::uint32_t block) const {
    return domain_div_.div(block);
  }
  /// Inverse of (domain_of, local_of).
  std::uint32_t global_of(std::uint32_t local, std::uint32_t domain) const {
    return local * num_domains_ + domain;
  }
  std::uint32_t blocks_in_domain(std::uint32_t domain) const {
    return (config_.num_blocks - domain + num_domains_ - 1) / num_domains_;
  }

  /// Returns the round-robin host-append domain and advances the cursor.
  std::uint32_t advance_domain() {
    const std::uint32_t dom = next_domain_;
    if (++next_domain_ == num_domains_) next_domain_ = 0;
    return dom;
  }

  /// Appends a page to one of domain `dom`'s log heads (the host stream, or
  /// the GC stream when `gc_stream` and the config separates them), opening
  /// a fresh block when needed.  Precondition: a free page exists in the
  /// domain (GC policy + per-domain reserve).
  Ppn append_page(Lpn lpn, std::uint32_t dom, bool gc_stream = false);

  /// Runs GC in domain `dom` until its free pool is back above the
  /// per-domain low-water mark.  Relocations stay inside the domain (the
  /// multi-stream GC rule: GC only occupies the LUN it erases).  Returns
  /// the time spent (valid-page relocations + erases).
  SimDuration collect_garbage(std::uint32_t dom);

  /// The low-water check + GC + GC telemetry that precedes a host write
  /// into domain `dom`.  Returns the stall charged to that write (0 when
  /// the pool is fine).
  SimDuration maybe_collect_for_write(std::uint32_t dom);

  /// Victim choice in domain `dom` under the configured policy; -1 when no
  /// candidate.  Returns a *global* block id.
  std::int64_t pick_victim(std::uint32_t dom);

  /// Invalidates the physical page currently mapped to `lpn`, if any.
  void invalidate(Lpn lpn);

  /// Timed single-page ops on LUN `lun` starting no earlier than `t`;
  /// return the absolute completion time and advance the bus/die/plane
  /// busy horizons (docs/internals/flash.md "Parallel timing model").
  /// `gc_us` is on-die GC work (copybacks + erases) that must finish on
  /// the plane before the program starts.
  SimTime read_page_at(SimTime t, std::uint32_t lun);
  SimTime write_page_at(SimTime t, std::uint32_t lun, SimDuration gc_us);

  FlashConfig config_;
  FlashStats stats_;

  // Per-page metadata, bit-packed (docs/internals/flash.md "Packed
  // metadata layout"): mapping entries carry exactly bits_for(address
  // space) bits, with the all-ones value as the unmapped sentinel; page
  // validity lives in a bitmap (P2L entries for invalid pages go stale
  // instead of being cleared -- the bitmap is the ground truth).
  util::PackedIntVector l2p_;   // logical -> physical page
  util::PackedIntVector p2l_;   // physical -> logical page (for GC)
  util::BitVector valid_bits_;  // physical page holds live data

  // Per-block metadata as SoA: the GC victim scan touches valid counts and
  // seal ages in bulk, and AoS padding (24 B/block) wasted over half the
  // footprint.
  std::vector<std::uint16_t> block_valid_;      // valid pages in block
  std::vector<std::uint16_t> block_write_ptr_;  // next free page slot
  std::vector<std::uint64_t> block_sealed_at_;  // write clock at seal
  util::BitVector block_open_;                  // currently a log head

  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

  // Block allocation is partitioned into per-LUN domains under parallel
  // timing (one domain on a flat device -- then this is exactly the old
  // single-pool layout).  Block b belongs to domain b % num_domains_; the
  // victim queue indexes blocks by their dense in-domain id.
  struct Domain {
    std::vector<std::uint32_t> free_blocks;  // stack of *global* block ids
    VictimQueue victims;                     // full blocks, by valid count
    std::uint32_t open_block = kNoBlock;
    std::uint32_t gc_open_block = kNoBlock;  // lazily opened GC stream head
    std::uint32_t scan_cursor = 0;  // cost-benefit stride-sampling cursor
  };
  std::vector<Domain> domains_;
  std::uint32_t num_domains_ = 1;
  std::uint32_t next_domain_ = 0;  // round-robin host-append cursor
  std::uint32_t low_water_ = kGcLowWater;  // config_.domain_low_water()

  // Exact multiply-high divisors for the runtime counts the per-page
  // paths divide by (docs/internals/flash.md "Parallel timing model").
  util::Divisor block_div_;    // pages_per_block
  util::Divisor domain_div_;   // num_domains_
  util::Divisor channel_div_;  // geometry.channels
  util::Divisor die_div_;      // geometry.dies()

  std::uint64_t valid_pages_ = 0;
  std::vector<std::uint32_t> block_erases_;  // lifetime, per block
  std::uint64_t write_clock_ = 0;  // host+GC pages programmed (age base)
  bool gc_active_ = false;  // re-entrancy guard: GC writes must not trigger GC

  // Parallel timing state: absolute busy horizons per channel bus, per die
  // (command acceptance) and per plane (array operation).  Empty vectors on
  // a flat device.
  bool parallel_ = false;
  std::vector<SimTime> bus_ready_;
  std::vector<SimTime> die_ready_;
  std::vector<SimTime> plane_ready_;

  // Telemetry (null = off; the hot-path guard is one pointer test).
  telemetry::Recorder* tel_ = nullptr;
  std::uint32_t tel_device_ = 0;
  telemetry::Counter* tel_gc_runs_ = nullptr;
  telemetry::Counter* tel_gc_page_moves_ = nullptr;
  telemetry::Counter* tel_gc_stall_us_ = nullptr;
};

}  // namespace edm::flash
