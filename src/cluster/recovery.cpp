// Failure accounting and RAID-5 rebuild (paper SIII.D).
//
// The paper's reliability argument: objects of one file always sit in
// distinct SSD groups, and migration never crosses groups, so correlated
// wear-out *within* a group can never take two members of a stripe at
// once.  These routines let tests and benches exercise exactly that
// property, and quantify the cost of reconstructing a device.
//
// Rebuild comes in two shapes sharing the same per-object steps
// (failed_objects / prepare / commit / finish):
//  * rebuild_osd() mutates state instantaneously and tallies device time
//    out-of-band -- fine for static what-if probes between replays.
//  * The simulator's online rebuild drives the same steps as chunked
//    reconstruction I/O through the OSD queues, so rebuild traffic
//    contends with foreground requests (see sim/fault_injector.h).
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "telemetry/telemetry.h"

namespace edm::cluster {

std::uint64_t Cluster::count_unavailable_files() const {
  std::uint64_t unavailable = 0;
  for (FileId f = 0; f < file_bytes_.size(); ++f) {
    std::uint32_t lost = 0;
    for (std::uint32_t j = 0; j < placement_.objects_per_file(); ++j) {
      if (osds_[locate(placement_.object_id(f, j))].failed()) ++lost;
    }
    if (lost >= 2) ++unavailable;
  }
  return unavailable;
}

std::vector<ObjectId> Cluster::failed_objects(OsdId dead) const {
  std::vector<ObjectId> victims;
  victims.reserve(osds_[dead].store().object_count());
  osds_[dead].store().for_each_object(
      [&](ObjectId oid) { victims.push_back(oid); });
  std::sort(victims.begin(), victims.end());  // deterministic order
  return victims;
}

Cluster::RebuildOutcome Cluster::prepare_object_rebuild(OsdId dead,
                                                        ObjectId oid,
                                                        OsdId& dst) {
  if (in_flight_.count(oid)) {
    throw std::logic_error(
        "Cluster::prepare_object_rebuild: object " + std::to_string(oid) +
        " still has a migration in flight; abort it before rebuilding");
  }
  // Reconstruction needs every other member of the stripe set alive.
  if (!for_each_sibling(oid, [this](ObjectId, OsdId at) {
        return !osds_[at].failed();
      })) {
    return RebuildOutcome::kUnrecoverable;
  }

  // Destination: the least-utilized healthy peer in the dead device's
  // group that can take the object (preserves the group invariant).
  const std::uint32_t pages = osds_[dead].object_pages(oid);
  OsdId best = dead;
  double best_util = 2.0;
  for (OsdId peer : placement_.group_peers(dead)) {
    if (osds_[peer].failed()) continue;
    if (osds_[peer].free_pages() < pages) continue;
    if (osds_[peer].utilization() < best_util) {
      best_util = osds_[peer].utilization();
      best = peer;
    }
  }
  if (best == dead) return RebuildOutcome::kUnplaced;
  if (!osds_[best].add_object(oid, pages)) return RebuildOutcome::kUnplaced;
  dst = best;
  return RebuildOutcome::kPlaced;
}

void Cluster::abort_object_rebuild(ObjectId oid, OsdId dst) {
  osds_[dst].remove_object(oid);
}

void Cluster::commit_object_rebuild(OsdId dead, ObjectId oid, OsdId dst) {
  const OsdId default_home = placement_.default_osd(placement_.file_of(oid),
                                                    placement_.index_of(oid));
  remap_.set(oid, dst, default_home);
  remap_.count_update();
  if (osds_[dead].has_object(oid)) osds_[dead].remove_object(oid);
  drop_fast_extent(oid);  // the surviving copy is the rebuilt one on dst
  if (tel_rebuild_commits_ != nullptr) tel_rebuild_commits_->inc();
}

void Cluster::finish_rebuild(OsdId dead) {
  // Drop whatever remains on the dead device and return it to service
  // (rebuilt empty; unrecoverable objects stay lost).
  Osd& device = osds_[dead];
  for (const ObjectId oid : failed_objects(dead)) {
    device.remove_object(oid);
    drop_fast_extent(oid);  // lost objects must not fast-path to the
                            // wiped device once it rejoins healthy
  }
  if (device.failed()) {
    device.set_failed(false);
    --num_failed_;
  }
}

Cluster::RebuildStats Cluster::rebuild_osd(OsdId dead) {
  RebuildStats stats;

  for (const ObjectId oid : failed_objects(dead)) {
    const std::uint32_t pages = osds_[dead].object_pages(oid);

    OsdId dst = dead;
    switch (prepare_object_rebuild(dead, oid, dst)) {
      case RebuildOutcome::kUnrecoverable:
        ++stats.unrecoverable;
        continue;
      case RebuildOutcome::kUnplaced:
        ++stats.unplaced;
        continue;
      case RebuildOutcome::kPlaced:
        break;
    }

    // Read the k-1 surviving members, write the reconstructed object.
    for_each_sibling(oid, [&](ObjectId peer, OsdId at) {
      stats.device_time += osds_[at].read(peer, 0, pages);
      stats.peer_pages_read += pages;  // siblings share the object size
      return true;
    });
    stats.device_time += osds_[dst].write(oid, 0, pages);
    stats.pages_written += pages;

    commit_object_rebuild(dead, oid, dst);
    ++stats.objects;
  }

  finish_rebuild(dead);
  return stats;
}

}  // namespace edm::cluster
