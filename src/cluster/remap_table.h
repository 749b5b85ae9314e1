// Remapping table (paper SIII.C): tracks objects that live away from their
// hash-placement home.  Its size is the memory-overhead metric of Fig. 8 --
// EDM deliberately prefers re-migrating already-remapped objects because
// that only *updates* an entry instead of adding one.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/types.h"

namespace edm::cluster {

class RemapTable {
 public:
  bool contains(ObjectId oid) const { return table_.contains(oid); }

  /// Points `oid` at `osd`.  When `osd` equals the object's default home
  /// the entry is dropped instead (the object is back where the hash says).
  void set(ObjectId oid, OsdId osd, OsdId default_home) {
    if (osd == default_home) {
      table_.erase(oid);
    } else {
      table_[oid] = osd;
    }
  }

  std::size_t size() const { return table_.size(); }

  /// Lifetime count of entry insert/update operations (growth-rate metric).
  std::uint64_t updates() const { return updates_; }
  void count_update() { ++updates_; }

  /// Visits entries in unspecified (hash) order; callers sort if they care.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [oid, osd] : table_) fn(oid, osd);
  }

 private:
  std::unordered_map<ObjectId, OsdId> table_;
  std::uint64_t updates_ = 0;
};

}  // namespace edm::cluster
