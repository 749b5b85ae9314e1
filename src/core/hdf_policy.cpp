#include "core/hdf_policy.h"

#include <algorithm>
#include <vector>

#include "core/selection.h"
#include "core/wear_monitor.h"

namespace edm::core {

MigrationPlan HdfPolicy::plan(const ClusterView& view, bool force) {
  MigrationPlan out;
  const WearMonitor monitor(cfg_.model, cfg_.lambda);
  const WearAssessment assess = monitor.assess(view.devices);
  if (!force && !assess.imbalanced) {
    note_plan(assess.rsd, 0);
    return out;
  }

  // Classification is cluster-wide (source: above mean by lambda; dest:
  // below mean), but movement amounts and triples are computed per group
  // because migration is strictly intra-group (paper SIII.A).
  std::vector<char> is_source(view.devices.size(), 0);
  std::vector<char> is_dest(view.devices.size(), 0);
  for (auto i : assess.sources) is_source[i] = 1;
  for (auto i : assess.destinations) is_dest[i] = 1;

  for (const auto& group : partition_by_group(view)) {
    std::vector<std::uint32_t> members;  // participating device indices
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

    // Algorithm 1 in write-page mode; utilization held fixed for HDF.
    std::vector<double> wc;
    std::vector<double> util;
    for (auto i : members) {
      wc.push_back(static_cast<double>(view.devices[i].write_pages));
      util.push_back(view.devices[i].utilization);
    }
    const std::vector<double> delta = calculate_data_movement(
        cfg_.model, wc, util, BalanceMode::kWritePages, cfg_.balance);

    // Destination quotas proportional to positive DeltaWc.
    std::vector<DestinationQuota> dests;
    for (std::size_t j = 0; j < members.size(); ++j) {
      // Quarantined devices stay in the member set as shedding sources but
      // never receive data (fail-slow mitigation).
      if (delta[j] > 0.0 && !view.devices[members[j]].quarantined) {
        dests.push_back({members[j], delta[j],
                         free_page_budget(view.devices[members[j]])});
      }
    }
    if (dests.empty()) continue;

    for (std::size_t j = 0; j < members.size(); ++j) {
      if (delta[j] >= 0.0) continue;
      const std::uint32_t dev = members[j];
      const double need = -delta[j];

      // Rank candidates: remapped objects first (re-migrating them only
      // updates the remapping table, SIII.C), then hottest-written first.
      std::vector<const ObjectView*> candidates;
      double temp_sum = 0.0;
      for (const ObjectView& o : view.objects[dev]) {
        temp_sum += o.write_temp;
        if (o.write_temp > 0.0) candidates.push_back(&o);
      }
      if (temp_sum <= 0.0) continue;
      std::sort(candidates.begin(), candidates.end(),
                [](const ObjectView* a, const ObjectView* b) {
                  if (a->remapped != b->remapped) return a->remapped;
                  if (a->write_temp != b->write_temp) {
                    return a->write_temp > b->write_temp;
                  }
                  return a->oid < b->oid;  // deterministic tie-break
                });

      // An object's expected share of the device's future writes is its
      // share of the write temperature.
      double shed = 0.0;
      for (const ObjectView* o : candidates) {
        if (shed >= need) break;
        const double contribution =
            o->write_temp / temp_sum * wc[j];
        const auto dst = assign_destination(dests, o->pages, contribution);
        if (!dst) continue;  // object does not fit anywhere; try smaller
        out.actions.push_back(
            {o->oid, view.devices[dev].id, view.devices[*dst].id, o->pages});
        shed += contribution;
      }
    }
  }
  note_plan(assess.rsd, out.actions.size());
  return out;
}

}  // namespace edm::core
