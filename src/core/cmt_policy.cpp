#include "core/cmt_policy.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/selection.h"
#include "util/stats.h"

namespace edm::core {

namespace {
/// Load-imbalance trigger threshold on the EWMA-latency load factor.
constexpr double kTheta = 0.10;

/// Storage-usage imbalance (within a group) that triggers the secondary
/// capacity-balancing moves.
constexpr double kUsageSpread = 0.045;
}  // namespace

MigrationPlan CmtPolicy::plan(const ClusterView& view, bool force) {
  MigrationPlan out;

  // Load factor: EWMA of I/O latency per device.  The trigger statistics
  // only consider healthy devices -- a dead device's EWMA is frozen at its
  // last value and would otherwise fake (or mask) an imbalance.
  std::vector<double> load;
  load.reserve(view.devices.size());
  std::vector<double> healthy_load;
  healthy_load.reserve(view.devices.size());
  for (const auto& d : view.devices) {
    load.push_back(d.load_ewma_us);
    if (!d.failed) healthy_load.push_back(d.load_ewma_us);
  }
  const util::Summary s = util::summarize(healthy_load);
  if (s.mean <= 0.0) return out;
  // Trigger signal: relative overshoot of the hottest device's EWMA load.
  const double signal = (s.max - s.mean) / s.mean;
  const bool imbalanced = signal > kTheta;
  if (!force && !imbalanced) {
    note_plan(signal, 0);
    return out;
  }

  std::unordered_set<ObjectId> planned;  // avoid double-moving one object

  for (const auto& group : partition_by_group(view)) {
    if (group.size() < 2) continue;

    // --- Load-balancing moves: shed hottest objects from overloaded ---
    std::vector<DestinationQuota> dests;
    for (auto i : group) {
      // A quarantined device's EWMA is inflated by its slowdown, so it
      // rarely shows a deficit anyway -- but never offer it as a target.
      if (view.devices[i].quarantined) continue;
      const double deficit = s.mean - load[i];
      if (deficit > 0.0) {
        dests.push_back({i, deficit,
                         free_page_budget(view.devices[i],
                                          cfg_.dest_utilization_cap)});
      }
    }
    if (!dests.empty()) {
      for (auto i : group) {
        const double excess = load[i] - s.mean * (1.0 + kTheta);
        if (excess <= 0.0) continue;
        // Move the hottest objects (reads and writes undifferentiated)
        // until their temperature share covers the excess load fraction.
        std::vector<const ObjectView*> candidates;
        double temp_sum = 0.0;
        for (const ObjectView& o : view.objects[i]) {
          temp_sum += o.total_temp;
          if (o.total_temp > 0.0) candidates.push_back(&o);
        }
        if (temp_sum <= 0.0) continue;
        std::sort(candidates.begin(), candidates.end(),
                  [](const ObjectView* a, const ObjectView* b) {
                    if (a->total_temp != b->total_temp) {
                      return a->total_temp > b->total_temp;
                    }
                    return a->oid < b->oid;
                  });
        const double target_fraction = (load[i] - s.mean) / load[i];
        double shed_fraction = 0.0;
        for (const ObjectView* o : candidates) {
          if (shed_fraction >= target_fraction) break;
          const double weight = o->total_temp / temp_sum * load[i];
          const auto dst = assign_destination(dests, o->pages, weight);
          if (!dst) continue;  // does not fit anywhere; try the next
          out.actions.push_back(
              {o->oid, view.devices[i].id, view.devices[*dst].id, o->pages});
          planned.insert(o->oid);
          shed_fraction += o->total_temp / temp_sum;
        }
      }
    }

    // --- Storage-usage balancing moves (Sorrento weights both factors) ---
    // Source: fullest device.  Destination: emptiest device that is not
    // load-hot -- dumping bulk data on an already busy provider would trade
    // one imbalance for another, and Sorrento's placement weighs both
    // signals.
    double group_load_mean = 0.0;
    for (auto i : group) group_load_mean += load[i];
    group_load_mean /= static_cast<double>(group.size());
    std::uint32_t hi = group[0];
    bool have_lo = false;
    std::uint32_t lo = group[0];
    for (auto i : group) {
      if (view.devices[i].utilization > view.devices[hi].utilization) hi = i;
      if (view.devices[i].quarantined) continue;  // never a bulk target
      if (load[i] <= group_load_mean &&
          (!have_lo ||
           view.devices[i].utilization < view.devices[lo].utilization)) {
        lo = i;
        have_lo = true;
      }
    }
    if (!have_lo) continue;
    const double spread =
        view.devices[hi].utilization - view.devices[lo].utilization;
    if (hi != lo && spread > kUsageSpread) {
      // Move bulk objects until half the pairwise spread is closed,
      // preferring the colder half of the source's objects (Sorrento moves
      // whole segments but steers around the hottest ones).
      const double target_pages = 0.35 * spread *
          static_cast<double>(view.devices[hi].capacity_pages +
                              view.devices[lo].capacity_pages);
      std::vector<const ObjectView*> bulk;
      std::vector<double> heat;
      for (const ObjectView& o : view.objects[hi]) {
        if (!planned.count(o.oid)) {
          bulk.push_back(&o);
          heat.push_back(o.total_temp / std::max<std::uint32_t>(1, o.pages));
        }
      }
      if (bulk.empty()) continue;
      std::nth_element(heat.begin(), heat.begin() + heat.size() / 2,
                       heat.end());
      const double median_heat = heat[heat.size() / 2];
      std::erase_if(bulk, [&](const ObjectView* o) {
        return o->total_temp / std::max<std::uint32_t>(1, o->pages) >
               median_heat;
      });
      std::sort(bulk.begin(), bulk.end(),
                [](const ObjectView* a, const ObjectView* b) {
                  if (a->pages != b->pages) return a->pages > b->pages;
                  return a->oid < b->oid;
                });
      std::int64_t budget =
          free_page_budget(view.devices[lo], cfg_.dest_utilization_cap);
      double moved = 0.0;
      for (const ObjectView* o : bulk) {
        if (moved >= target_pages) break;
        if (budget < static_cast<std::int64_t>(o->pages)) break;
        out.actions.push_back(
            {o->oid, view.devices[hi].id, view.devices[lo].id, o->pages});
        planned.insert(o->oid);
        moved += static_cast<double>(o->pages);
        budget -= o->pages;
      }
    }
  }
  note_plan(signal, out.actions.size());
  return out;
}

}  // namespace edm::core
