#include "core/cdf_policy.h"

#include <algorithm>
#include <vector>

#include "core/selection.h"
#include "core/wear_monitor.h"

namespace edm::core {

namespace {
/// Objects whose total temperature is below this many accessed pages *per
/// object page* are "cold" candidates.  The threshold is size-relative: an
/// absolute cutoff would never classify a large object as cold (a single
/// stray read exceeds it), yet large cold objects are exactly what CDF
/// wants to move ("objects with the largest size are first selected",
/// SIII.B.5).
constexpr double kColdThreshold = 0.5;

/// Never migrate from a source below this utilization (paper: "we never
/// migrate a cold object from a source device whose disk utilization is
/// less than 50 percent").
constexpr double kMinSourceUtilization = 0.50;
}  // namespace

MigrationPlan CdfPolicy::plan(const ClusterView& view, bool force) {
  MigrationPlan out;
  const WearMonitor monitor(cfg_.model, cfg_.lambda);
  const WearAssessment assess = monitor.assess(view.devices);
  if (!force && !assess.imbalanced) {
    note_plan(assess.rsd, 0);
    return out;
  }

  std::vector<char> is_source(view.devices.size(), 0);
  std::vector<char> is_dest(view.devices.size(), 0);
  for (auto i : assess.sources) is_source[i] = 1;
  for (auto i : assess.destinations) is_dest[i] = 1;

  for (const auto& group : partition_by_group(view)) {
    std::vector<std::uint32_t> members;
    bool has_source = false;
    bool has_dest = false;
    for (auto i : group) {
      if (is_source[i] || is_dest[i]) {
        members.push_back(i);
        has_source |= is_source[i] != 0;
        has_dest |= is_dest[i] != 0;
      }
    }
    if (!has_source || !has_dest || members.size() < 2) continue;

    // Algorithm 1 in utilization mode; write pages held fixed for CDF.
    std::vector<double> wc;
    std::vector<double> util;
    for (auto i : members) {
      wc.push_back(static_cast<double>(view.devices[i].write_pages));
      util.push_back(view.devices[i].utilization);
    }
    const std::vector<double> delta_u = calculate_data_movement(
        cfg_.model, wc, util, BalanceMode::kUtilization, cfg_.balance);

    // Destination quotas in pages of capacity.
    std::vector<DestinationQuota> dests;
    for (std::size_t j = 0; j < members.size(); ++j) {
      // Quarantined devices shed but never receive (fail-slow mitigation).
      if (delta_u[j] > 0.0 && !view.devices[members[j]].quarantined) {
        const auto& dev = view.devices[members[j]];
        dests.push_back(
            {members[j],
             delta_u[j] * static_cast<double>(dev.capacity_pages),
             free_page_budget(dev, cfg_.dest_utilization_cap)});
      }
    }
    if (dests.empty()) continue;

    for (std::size_t j = 0; j < members.size(); ++j) {
      if (delta_u[j] >= 0.0) continue;
      const std::uint32_t dev = members[j];
      // Below the Eq. 3 knee utilization barely affects wear: skip.
      if (view.devices[dev].utilization < kMinSourceUtilization) {
        continue;
      }
      const double need_pages =
          -delta_u[j] * static_cast<double>(view.devices[dev].capacity_pages);

      // Cold candidates, largest first (fewest moved objects / smallest
      // remapping-table growth); remapped ones first within equal size.
      std::vector<const ObjectView*> candidates;
      for (const ObjectView& o : view.objects[dev]) {
        const double per_page =
            o.total_temp / std::max<std::uint32_t>(1, o.pages);
        if (per_page < kColdThreshold) candidates.push_back(&o);
      }
      std::sort(candidates.begin(), candidates.end(),
                [](const ObjectView* a, const ObjectView* b) {
                  if (a->remapped != b->remapped) return a->remapped;
                  if (a->pages != b->pages) return a->pages > b->pages;
                  return a->oid < b->oid;
                });

      double shed_pages = 0.0;
      for (const ObjectView* o : candidates) {
        if (shed_pages >= need_pages) break;
        const auto dst =
            assign_destination(dests, o->pages, static_cast<double>(o->pages));
        if (!dst) continue;  // does not fit anywhere; try a smaller one
        out.actions.push_back(
            {o->oid, view.devices[dev].id, view.devices[*dst].id, o->pages});
        shed_pages += static_cast<double>(o->pages);
      }
    }
  }
  note_plan(assess.rsd, out.actions.size());
  return out;
}

}  // namespace edm::core
