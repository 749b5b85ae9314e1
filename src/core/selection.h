// Shared machinery for turning per-device movement amounts into concrete
// (object, source, destination) triples: group partitioning of the cluster
// view and greedy quota-based destination assignment ("relocated to the
// destination devices in proportion to DeltaWc", paper SIII.B.5).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/view.h"

namespace edm::core {

/// Indices (into ClusterView::devices) of the healthy members of one SSD
/// group; failed devices are excluded, so policies never plan moves from
/// or to a dead device.
std::vector<std::vector<std::uint32_t>> partition_by_group(
    const ClusterView& view);

/// A destination with a remaining movement quota (unit chosen by the
/// policy: expected write pages for HDF, pages of capacity for CDF/CMT)
/// and a hard free-space budget in pages.
struct DestinationQuota {
  std::uint32_t device_index = 0;  // index into ClusterView::devices
  double remaining_quota = 0.0;
  std::int64_t free_page_budget = 0;
};

/// Computes the page budget a destination can accept before its projected
/// utilization crosses cluster::kDestinationUtilizationCap, the cap the
/// cluster enforces again when it admits the move.
std::int64_t free_page_budget(const DeviceView& device);

/// Picks the destination with the largest remaining quota that can still fit
/// `pages`, charges it `weight` quota + `pages` budget, and returns its
/// device index.  Returns nullopt when no destination fits.
std::optional<std::uint32_t> assign_destination(
    std::vector<DestinationQuota>& destinations, std::uint32_t pages,
    double weight);

}  // namespace edm::core
