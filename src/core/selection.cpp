#include "core/selection.h"

#include <stdexcept>

#include "cluster/cluster.h"

namespace edm::core {

std::vector<std::vector<std::uint32_t>> partition_by_group(
    const ClusterView& view) {
  if (view.placement == nullptr) {
    throw std::invalid_argument("ClusterView missing placement");
  }
  std::vector<std::vector<std::uint32_t>> groups(
      view.placement->num_groups());
  for (std::uint32_t i = 0; i < view.devices.size(); ++i) {
    // Failed devices take part in neither role: the mover cannot read
    // their objects (that is rebuild's job) and must not reserve space on
    // them.  Dropping them here keeps every policy failure-aware.
    if (view.devices[i].failed) continue;
    groups[view.placement->group_of(view.devices[i].id)].push_back(i);
  }
  return groups;
}

std::int64_t free_page_budget(const DeviceView& device) {
  const auto max_allocated = static_cast<std::int64_t>(
      cluster::kDestinationUtilizationCap *
      static_cast<double>(device.capacity_pages));
  const auto allocated = static_cast<std::int64_t>(device.capacity_pages -
                                                   device.free_pages);
  return max_allocated - allocated;
}

std::optional<std::uint32_t> assign_destination(
    std::vector<DestinationQuota>& destinations, std::uint32_t pages,
    double weight) {
  DestinationQuota* best = nullptr;
  for (auto& d : destinations) {
    if (d.free_page_budget < static_cast<std::int64_t>(pages)) continue;
    if (d.remaining_quota <= 0.0) continue;
    if (best == nullptr || d.remaining_quota > best->remaining_quota) {
      best = &d;
    }
  }
  if (best == nullptr) return std::nullopt;
  best->remaining_quota -= weight;
  best->free_page_budget -= pages;
  return best->device_index;
}

}  // namespace edm::core
