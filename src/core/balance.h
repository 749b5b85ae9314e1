// Algorithm 1 from the paper: CALCULATE-AMOUNT-OF-DATA-MOVEMENT.
//
// Iteratively balances the device with the maximum erase estimate against
// the device with the minimum: each step scans epsilon in (0, 1) with step
// 0.001 for the smallest shift Delta = value_max * epsilon that makes the
// hot device's estimated erase count drop to (or below) the cold device's
// raised one, then books that shift and repeats (500 iterations by default).
//
// Two modes mirror the paper's two policies:
//  * kWritePages (HDF): shifts Wc between devices; utilizations are held
//    fixed ("the impact of migration on disk utilization is ignored for
//    HDF").  Returns DeltaWc in pages (negative = writes to shed).
//  * kUtilization (CDF): shifts u between devices; write pages are held
//    fixed ("array Wc is considered to be kept unchanged for CDF").
//    Returns Delta-u as utilization fractions.
//
// The scan's stop test is monotone in epsilon (F(u) is monotone bit for
// bit, Eq. 4 is monotone in Wc and F, and the shift only grows), so the
// smallest stopping epsilon is found by galloping search over the same
// epsilon values the linear scan visits; the result is identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/wear_model.h"

namespace edm::core {

enum class BalanceMode { kWritePages, kUtilization };

struct BalanceParams {
  int iterations = 500;      // paper: "total iteration step is set to 500"

  /// Bounds for kUtilization mode.  Utilization has a *floor* of influence
  /// on wear (below the Eq. 3 knee GC is already free -- the reason CDF
  /// never drains a source under 50%), so when write intensities differ too
  /// much the erase gap cannot be closed by utilization shifts at all; an
  /// unbounded scan would then dump a device's whole utilization on the
  /// coldest peer.  Shifts are clamped so sources stay above the floor and
  /// destinations below the ceiling; a device at its bound stops
  /// participating.
  double utilization_floor = 0.50;
  double utilization_ceiling = 0.90;

  /// Additional per-device cap on total utilization shed (kUtilization
  /// mode).  When the erase gap is write-driven, no utilization shift can
  /// close it and the scan would otherwise drain every source to the
  /// floor; CDF is the *gentle* policy, so it sheds at most this much
  /// utilization per source ("slightly relaxes the amount of data
  /// movement", paper SIII.B.4).
  double max_source_shed = 0.10;
};

/// Runs Algorithm 1 over the participating devices.
///
/// `write_pages` and `utilization` are parallel arrays (one entry per
/// participating device, e.g. the source+destination set of one SSD group).
/// Write pages must be non-negative: the epsilon search relies on Eq. 4
/// falling as F(u) falls, which holds only for Wc >= 0.
/// Returns the per-device delta in the mode's unit; entries sum to ~0.
std::vector<double> calculate_data_movement(const WearModel& model,
                                            std::span<const double> write_pages,
                                            std::span<const double> utilization,
                                            BalanceMode mode,
                                            const BalanceParams& params = {});

}  // namespace edm::core
