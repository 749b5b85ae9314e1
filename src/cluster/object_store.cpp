#include "cluster/object_store.h"

#include <algorithm>
#include <cassert>

namespace edm::cluster {

ObjectStore::ObjectStore(std::uint64_t logical_pages)
    : capacity_pages_(logical_pages) {
  free_list_.push_back({0, static_cast<std::uint32_t>(logical_pages)});
}

bool ObjectStore::create(ObjectId oid, std::uint32_t pages) {
  if (pages == 0 || contains(oid)) return false;
  if (pages > free_pages()) return false;

  std::vector<Extent> taken;
  std::uint32_t remaining = pages;
  // First-fit: prefer a single extent; otherwise gather holes in order.
  for (auto it = free_list_.begin(); it != free_list_.end() && remaining;) {
    if (it->pages > remaining) {
      taken.push_back({it->first, remaining});
      it->first += remaining;
      it->pages -= remaining;
      remaining = 0;
    } else {
      taken.push_back(*it);
      remaining -= it->pages;
      it = free_list_.erase(it);
      continue;
    }
    ++it;
  }
  assert(remaining == 0);  // guaranteed by the free_pages() check
  allocated_pages_ += pages;
  objects_.emplace(oid, std::move(taken));
  return true;
}

std::vector<Extent> ObjectStore::remove(ObjectId oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) return {};
  std::vector<Extent> freed = std::move(it->second);
  objects_.erase(it);
  for (const auto& e : freed) {
    allocated_pages_ -= e.pages;
    // Insert sorted and coalesce with neighbours.
    auto pos = std::lower_bound(
        free_list_.begin(), free_list_.end(), e,
        [](const Extent& a, const Extent& b) { return a.first < b.first; });
    pos = free_list_.insert(pos, e);
    // Coalesce with successor.
    if (pos + 1 != free_list_.end() &&
        pos->first + pos->pages == (pos + 1)->first) {
      pos->pages += (pos + 1)->pages;
      free_list_.erase(pos + 1);
    }
    // Coalesce with predecessor.
    if (pos != free_list_.begin()) {
      auto prev = pos - 1;
      if (prev->first + prev->pages == pos->first) {
        prev->pages += pos->pages;
        free_list_.erase(pos);
      }
    }
  }
  return freed;
}

std::uint32_t ObjectStore::object_pages(ObjectId oid) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) return 0;
  std::uint32_t total = 0;
  for (const auto& e : it->second) total += e.pages;
  return total;
}

const std::vector<Extent>* ObjectStore::extents(ObjectId oid) const {
  const auto it = objects_.find(oid);
  return it == objects_.end() ? nullptr : &it->second;
}

std::vector<Extent> ObjectStore::map_range(ObjectId oid,
                                           std::uint32_t first_page,
                                           std::uint32_t pages) const {
  std::vector<Extent> out;
  map_range(oid, first_page, pages, out);
  return out;
}

void ObjectStore::map_range_slow(const std::vector<Extent>& all,
                                 std::uint32_t first_page, std::uint32_t pages,
                                 std::vector<Extent>& out) {
  std::uint32_t skip = first_page;
  std::uint32_t want = pages;
  for (const auto& e : all) {
    if (want == 0) break;
    if (skip >= e.pages) {
      skip -= e.pages;
      continue;
    }
    const std::uint32_t avail = e.pages - skip;
    const std::uint32_t take = std::min(avail, want);
    out.push_back({e.first + skip, take});
    want -= take;
    skip = 0;
  }
  // Clamped: `want` may remain if the range exceeds the object.
}

bool ObjectStore::check_invariants() const {
  // Gather all extents (free + allocated) and verify exact tiling.
  std::vector<Extent> all = free_list_;
  std::uint64_t allocated = 0;
  for (const auto& [oid, extents] : objects_) {
    for (const auto& e : extents) {
      all.push_back(e);
      allocated += e.pages;
    }
  }
  if (allocated != allocated_pages_) return false;
  std::sort(all.begin(), all.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  std::uint64_t cursor = 0;
  for (const auto& e : all) {
    if (e.first != cursor) return false;  // gap or overlap
    if (e.pages == 0) return false;
    cursor += e.pages;
  }
  // Free list must be sorted and fully coalesced.
  for (std::size_t i = 1; i < free_list_.size(); ++i) {
    if (free_list_[i - 1].first + free_list_[i - 1].pages >=
        free_list_[i].first + 1) {
      // Adjacent (un-coalesced) or overlapping.
      if (free_list_[i - 1].first + free_list_[i - 1].pages ==
          free_list_[i].first) {
        return false;  // should have been coalesced
      }
      return false;
    }
  }
  return cursor == capacity_pages_;
}

}  // namespace edm::cluster
