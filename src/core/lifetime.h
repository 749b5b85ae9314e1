// Endurance / lifetime estimation -- the quantity EDM ultimately protects.
//
// Each flash cell survives a limited number of program/erase cycles; with
// (device-internal) wear levelling a device's life is kPeCycleLimit
// block-erases per block.  Given the per-device erase counts accumulated
// over a measured window, the device's erase *rate* extrapolates to a
// time-to-wear-out; the cluster fails when its first device does, so wear
// variance directly costs cluster lifetime even when the average wear is
// fine.  This is also where the paper's SIII.D de-synchronisation argument
// lives: simultaneous wear-out of many devices is the dangerous case.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace edm::core {

/// P/E cycles per block before the device is worn out (MLC-era NAND, as
/// deployed when the paper was written: ~3000).
inline constexpr std::uint32_t kPeCycleLimit = 3000;

struct EnduranceModel {
  /// Blocks per device (total erase budget = blocks * kPeCycleLimit).
  std::uint32_t num_blocks = 2048;

  double total_erase_budget() const {
    return static_cast<double>(kPeCycleLimit) * num_blocks;
  }
};

struct LifetimeEstimate {
  /// Per-device time-to-wear-out in (simulated) seconds; +inf when a
  /// device saw no erases in the window.
  std::vector<double> device_seconds;

  /// Cluster lifetime = first device exhaustion.
  double first_failure_seconds = 0.0;

  /// Time between the first and second wear-out: the repair window the
  /// RAID-5 redundancy has before a second member is at risk.
  double first_to_second_gap_seconds = 0.0;

  /// Mean device lifetime (what a perfectly balanced cluster would get).
  double mean_seconds = 0.0;

  /// first_failure / mean: 1.0 = perfectly balanced wear.
  double balance_efficiency = 0.0;
};

/// Extrapolates device lifetimes from erase counts observed during
/// `window_seconds` of simulated time.
LifetimeEstimate estimate_lifetime(std::span<const std::uint64_t> erase_counts,
                                   double window_seconds,
                                   const EnduranceModel& model);

}  // namespace edm::core
