// Per-OSD object extent store: maps objects onto the logical page space of
// the device's SSD.  First-fit extent allocation with hole coalescing on
// free; objects may span multiple extents when the space is fragmented
// (migration churn fragments the log over long runs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/types.h"

namespace edm::cluster {

struct Extent {
  Lpn first = 0;
  std::uint32_t pages = 0;
};

class ObjectStore {
 public:
  explicit ObjectStore(std::uint64_t logical_pages);

  /// Allocates `pages` for `oid`.  Returns false (no state change) when the
  /// device lacks space or the object already exists.
  bool create(ObjectId oid, std::uint32_t pages);

  /// Frees the object's extents.  Returns the freed extents so the caller
  /// can trim the underlying flash pages.  Empty when unknown.
  std::vector<Extent> remove(ObjectId oid);

  bool contains(ObjectId oid) const { return objects_.contains(oid); }

  /// Size in pages; 0 for unknown objects.
  std::uint32_t object_pages(ObjectId oid) const;

  const std::vector<Extent>* extents(ObjectId oid) const;

  /// Translates an object-relative page range into device extents.
  /// Clamps to the object end; returns the mapped extents in order.
  std::vector<Extent> map_range(ObjectId oid, std::uint32_t first_page,
                                std::uint32_t pages) const;

  /// Allocation-free variant for hot paths: clears `out` and fills it with
  /// the mapped extents, reusing its capacity across calls.  Defined inline
  /// -- it runs once per sub-request the simulator dispatches and the
  /// single-extent fast path folds into the caller.
  void map_range(ObjectId oid, std::uint32_t first_page, std::uint32_t pages,
                 std::vector<Extent>& out) const {
    out.clear();
    const auto it = objects_.find(oid);
    if (it == objects_.end() || pages == 0) return;
    const std::vector<Extent>& all = it->second;
    if (all.size() == 1) {
      // Single-extent object (the common case): pure arithmetic.
      const Extent& e = all.front();
      if (first_page >= e.pages) return;  // clamped: starts past the end
      out.push_back({e.first + first_page,
                     std::min(pages, e.pages - first_page)});
      return;
    }
    map_range_slow(all, first_page, pages, out);
  }

  std::uint64_t allocated_pages() const { return allocated_pages_; }
  std::uint64_t capacity_pages() const { return capacity_pages_; }
  std::uint64_t free_pages() const { return capacity_pages_ - allocated_pages_; }

  /// allocated / capacity -- the "disk utilization" u that EDM's wear model
  /// consumes (what a file system observes).
  double utilization() const {
    return capacity_pages_
               ? static_cast<double>(allocated_pages_) /
                     static_cast<double>(capacity_pages_)
               : 0.0;
  }

  std::size_t object_count() const { return objects_.size(); }

  /// Iterates all resident object ids (order unspecified).
  template <typename Fn>
  void for_each_object(Fn&& fn) const {
    for (const auto& [oid, extents] : objects_) fn(oid);
  }

  /// Test hook: verifies free-list + object extents exactly tile the
  /// device with no overlap.
  bool check_invariants() const;

 private:
  static void map_range_slow(const std::vector<Extent>& all,
                             std::uint32_t first_page, std::uint32_t pages,
                             std::vector<Extent>& out);

  std::uint64_t capacity_pages_;
  std::uint64_t allocated_pages_ = 0;
  std::vector<Extent> free_list_;  // sorted by first page, coalesced

  // populate_all() and the warm-up replay iterate objects_, and their
  // (hash-order) visit sequence is pinned by the digest fixtures: keep the
  // container, and do not reserve() it, since its bucket count sets that
  // order.
  std::unordered_map<ObjectId, std::vector<Extent>> objects_;
};

}  // namespace edm::cluster
