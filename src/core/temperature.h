// Object temperature estimation (paper SIII.B.3, Definition 1).
//
// The time-line is split into fixed epochs; the temperature at epoch k is
// T_k = sum_i A_i / 2^(k-i), maintained incrementally via the recurrence
// T_k = T_{k-1}/2 + A_k (Eq. 6).  Accesses within the current epoch count
// undamped; every epoch boundary halves all history.  Decay is applied
// lazily per object (no O(objects) work at epoch boundaries).
//
// EDM keeps two temperatures per object: a write-only temperature (A_i =
// write pages; what HDF ranks by) and a total temperature (A_i = read +
// write pages; what CDF uses to find rarely-accessed objects).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace edm::core {

namespace detail {
/// 2^-delta for delta in [0, 64): the epoch-decay factors.  Powers of two
/// are exact doubles and multiplying by one rounds the same exact product
/// std::ldexp would, so `temp * kDecayFactor[delta]` is bit-identical to
/// ldexp(temp, -delta) -- minus the libm call on the per-I/O hot path.
inline constexpr std::array<double, 64> kDecayFactor = [] {
  std::array<double, 64> a{};
  double v = 1.0;
  for (double& x : a) {
    x = v;
    v *= 0.5;
  }
  return a;
}();
}  // namespace detail

/// The per-OSD access tracker of the EDM architecture (Fig. 4): updates both
/// temperatures on every read/write the OSD serves.
///
/// Object ids in this codebase are dense small integers (file * k + index
/// with dense file ids), so both temperatures live in ONE vector indexed
/// directly by object id: the hot on_access() is a single array access --
/// no hashing, no probe chain, no rehash pauses.  Each side keeps its own
/// existence flag, value, and epoch stamp, so the two temperatures behave
/// as two independent maps -- temperatures, tracked-object counts and
/// capacity eviction on one side never touch the other.  (The paper's
/// memory bound is modelled by the existence flags; a cleared entry
/// behaves exactly like one evicted from a bounded cache.)
class AccessTracker {
 public:
  /// `max_entries_per_map` bounds each temperature side's memory (0 =
  /// unbounded); the coldest entries are shed at every epoch boundary.
  explicit AccessTracker(std::size_t max_entries_per_map = 0)
      : max_entries_(max_entries_per_map) {}

  /// Pre-sizes the dense table for object ids in [0, count) so the replay
  /// never grows it mid-run.  Ids at or past the current size still work
  /// (amortised doubling), this just front-loads the allocation.
  void reserve_dense(std::size_t count) {
    if (count > dense_.size()) dense_.resize(count);
  }

  /// Records one object access of `pages` flash pages.
  void on_access(ObjectId oid, std::uint32_t pages, bool is_write) {
    if (oid >= dense_.size()) grow(oid);
    DualEntry& e = dense_[oid];
    bump(e.total, e.total_epoch, e.has_total, total_count_, pages);
    if (is_write) bump(e.write, e.write_epoch, e.has_write, write_count_, pages);
  }

  /// Epoch boundary for both temperature sides (driven by the simulator's
  /// per-minute tick).  Enforces the memory bound here, amortised.
  void advance_epoch() {
    ++epoch_;
    if (max_entries_ != 0) {
      enforce_side(&DualEntry::write, &DualEntry::write_epoch,
                   &DualEntry::has_write, write_count_);
      enforce_side(&DualEntry::total, &DualEntry::total_epoch,
                   &DualEntry::has_total, total_count_);
    }
  }

  double write_temperature(ObjectId oid) const {
    if (oid >= dense_.size()) return 0.0;
    const DualEntry& e = dense_[oid];
    if (!e.has_write) return 0.0;
    return decay(e.write, epoch_ - e.write_epoch);
  }
  double total_temperature(ObjectId oid) const {
    if (oid >= dense_.size()) return 0.0;
    const DualEntry& e = dense_[oid];
    if (!e.has_total) return 0.0;
    return decay(e.total, epoch_ - e.total_epoch);
  }

  std::uint32_t epoch() const { return epoch_; }
  std::size_t tracked_write_objects() const { return write_count_; }
  std::size_t tracked_total_objects() const { return total_count_; }

 private:
  struct DualEntry {
    double total = 0.0;
    double write = 0.0;
    std::uint32_t total_epoch = 0;
    std::uint32_t write_epoch = 0;
    std::uint8_t has_total = 0;  // side "exists" -- mirrors a separate
    std::uint8_t has_write = 0;  // map's membership, incl. after eviction
  };

  static double decay(double temp, std::uint32_t delta) {
    if (delta >= 64) return 0.0;
    return temp * detail::kDecayFactor[delta];
  }

  void bump(double& temp, std::uint32_t& ep, std::uint8_t& has,
            std::size_t& count, std::uint32_t pages) {
    if (!has) {
      has = 1;
      ++count;
      temp = pages;
      ep = epoch_;
      return;
    }
    if (ep != epoch_) {
      temp = decay(temp, epoch_ - ep);
      ep = epoch_;
    }
    temp += pages;
  }

  /// Doubles the dense table out to cover `oid` (tests feed arbitrary ids;
  /// the simulator pre-sizes via reserve_dense so this never runs there).
  void grow(ObjectId oid) {
    std::size_t n = dense_.empty() ? 64 : dense_.size();
    while (n <= oid) n *= 2;
    dense_.resize(n);
  }

  /// Capacity bound for one temperature side: keeps (approximately) the
  /// `max_entries_` hottest entries, evicting from the cold end ("we only
  /// cache the k hottest objects in memory for HDF", SIV).
  void enforce_side(double DualEntry::*temp, std::uint32_t DualEntry::*ep,
                    std::uint8_t DualEntry::*has, std::size_t& count) {
    if (count <= max_entries_) return;
    temps_scratch_.clear();
    temps_scratch_.reserve(count);
    for (const DualEntry& e : dense_) {
      if (e.*has) temps_scratch_.push_back(decay(e.*temp, epoch_ - e.*ep));
    }
    const std::size_t keep = max_entries_;
    std::nth_element(temps_scratch_.begin(), temps_scratch_.end() - keep,
                     temps_scratch_.end());
    const double threshold = *(temps_scratch_.end() - keep);
    // Evict strictly-colder entries; ties survive (slight overshoot is
    // fine, the next epoch will shed them once they decay).
    for (DualEntry& e : dense_) {
      if (e.*has && decay(e.*temp, epoch_ - e.*ep) < threshold) {
        e.*has = 0;
        --count;
      }
    }
  }

  std::vector<DualEntry> dense_;  // indexed by (dense) object id
  std::uint32_t epoch_ = 0;
  std::size_t max_entries_ = 0;
  std::size_t total_count_ = 0;
  std::size_t write_count_ = 0;
  std::vector<double> temps_scratch_;  // enforce_side, reused per epoch
};

}  // namespace edm::core
