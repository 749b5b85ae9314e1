#include "cluster/cluster.h"

#include <algorithm>
#include <bit>
#include <string>

#include "telemetry/telemetry.h"

namespace edm::cluster {

void ClusterConfig::validate() const {
  // Every device starts at up to target_max_utilization, so a target above
  // the destination cap would reject every migration destination from the
  // first shuffle.
  static_assert(kDestinationUtilizationCap == 0.90, "message quotes 0.9");
  if (!(target_max_utilization > 0.0) ||
      target_max_utilization > kDestinationUtilizationCap) {
    throw std::invalid_argument(
        "ClusterConfig: target_max_utilization must be in (0, 0.9]; 0.9 is "
        "the destination utilization cap, above which no device could "
        "receive a migration");
  }
  // Placement construction validates n/m/k; FlashConfig validates geometry.
}

namespace {
/// Byte offset -> flash page: a shift, as kPageSize is a power of two.
constexpr int kPageShift = std::countr_zero(flash::kPageSize);

/// Flash pages holding `bytes`, rounded up.
std::uint64_t pages_of(std::uint64_t bytes) {
  return (bytes + flash::kPageSize - 1) / flash::kPageSize;
}

Placement make_placement(const ClusterConfig& config) {
  if (!config.group_sizes.empty()) {
    return Placement(config.group_sizes, config.objects_per_file);
  }
  return Placement(config.num_osds, config.num_groups,
                   config.objects_per_file);
}
}  // namespace

Cluster::Cluster(ClusterConfig config, std::span<const trace::FileSpec> files)
    : config_(config),
      placement_(make_placement(config)),
      layout_(config.objects_per_file, kStripeUnit) {
  // Weighted grouping derives the topology from the size list.
  config_.num_osds = placement_.num_osds();
  config_.num_groups = placement_.num_groups();
  config_.validate();

  // Record file sizes (FileSpec ids are expected dense 0..N-1; enforce).
  file_bytes_.resize(files.size(), 0);
  for (const auto& f : files) {
    if (f.id >= files.size()) {
      throw std::invalid_argument("Cluster: file ids must be dense 0..N-1");
    }
    file_bytes_[f.id] = f.size_bytes;
  }

  // Dynamic capacity rule: find the most loaded OSD under default placement
  // and size every SSD so that OSD lands at target_max_utilization.
  std::vector<std::uint64_t> pages_per_osd(config_.num_osds, 0);
  for (FileId f = 0; f < file_bytes_.size(); ++f) {
    const std::uint64_t obj_bytes = layout_.object_bytes(file_bytes_[f]);
    const std::uint64_t obj_pages = pages_of(obj_bytes);
    for (std::uint32_t j = 0; j < placement_.objects_per_file(); ++j) {
      pages_per_osd[placement_.default_osd(f, j)] += obj_pages;
    }
  }
  const std::uint64_t max_pages =
      *std::max_element(pages_per_osd.begin(), pages_per_osd.end());
  const auto capacity_bytes = static_cast<std::uint64_t>(
      static_cast<double>(max_pages * flash::kPageSize) /
      config_.target_max_utilization);
  const flash::FlashConfig sized =
      config_.flash.with_logical_capacity(std::max<std::uint64_t>(
          capacity_bytes, 8ull * config_.flash.block_bytes()));
  config_.flash = sized;

  osds_.reserve(config_.num_osds);
  for (OsdId id = 0; id < config_.num_osds; ++id) {
    osds_.emplace_back(id, sized);
  }

  // Create every object at its hash home, which seeds the location table
  // so locate() never re-derives the placement hash on the hot path.
  location_.resize(file_bytes_.size() * placement_.objects_per_file());
  fast_.resize(location_.size());
  std::vector<Extent> extents;
  for (FileId f = 0; f < file_bytes_.size(); ++f) {
    const std::uint64_t obj_bytes = layout_.object_bytes(file_bytes_[f]);
    const auto obj_pages = static_cast<std::uint32_t>(pages_of(obj_bytes));
    for (std::uint32_t j = 0; j < placement_.objects_per_file(); ++j) {
      const ObjectId oid = placement_.object_id(f, j);
      const OsdId home = placement_.default_osd(f, j);
      location_[oid] = home;
      if (!osds_[home].add_object(oid, obj_pages)) {
        throw std::runtime_error(
            "Cluster: OSD out of space during creation (capacity sizing bug)");
      }
      // Freshly created objects are contiguous; seed the device-I/O fast
      // path with the extent (zero-page objects stay on the slow path,
      // which already handles them as no-ops).
      osds_[home].store().map_range(oid, 0, obj_pages, extents);
      if (extents.size() == 1) {
        fast_[oid] = FastExtent{home, extents[0].first, extents[0].pages};
      }
    }
  }
}

std::uint32_t Cluster::object_pages(ObjectId oid) const {
  return osds_[locate(oid)].object_pages(oid);
}

void Cluster::map_request(const trace::Record& record,
                          std::vector<OsdIo>& out) const {
  using trace::OpType;
  if (record.op == OpType::kOpen || record.op == OpType::kClose) {
    return;  // metadata-only in this model
  }
  const std::uint64_t fsize = file_bytes_[record.file];
  if (fsize == 0 || record.size == 0) return;
  std::uint64_t offset = std::min<std::uint64_t>(record.offset, fsize - 1);
  const auto length = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(record.size, fsize - offset));

  static thread_local std::vector<ObjectIo> scratch;
  scratch.clear();
  if (record.op == OpType::kWrite) {
    layout_.map_write(offset, length, scratch);
  } else {
    layout_.map_read(offset, length, scratch);
  }

  // Healthy cluster (the overwhelming case): no per-io failed-bit load.
  const bool degraded = any_failed();
  for (const ObjectIo& io : scratch) {
    const ObjectId oid = placement_.object_id(record.file, io.object_index);
    OsdIo out_io;
    out_io.osd = locate(oid);
    out_io.oid = oid;
    const std::uint64_t last_byte = io.offset + io.length - 1;
    out_io.first_page = static_cast<std::uint32_t>(io.offset >> kPageShift);
    out_io.pages = static_cast<std::uint32_t>(last_byte >> kPageShift) -
                   out_io.first_page + 1;
    out_io.is_write = io.is_write;
    out_io.is_parity = io.is_parity;

    if (!degraded || !osds_[out_io.osd].failed()) {
      out.push_back(out_io);
      continue;
    }
    // Degraded mode: the target OSD is down.
    if (io.is_write) {
      // The write (or its RMW pre-read) cannot land; it is lost until the
      // device is rebuilt.
      ++lost_writes_;
      continue;
    }
    // RAID-5 reconstruction: read the same stripe range from the file's
    // k-1 other objects.
    const std::size_t expansion_start = out.size();
    const bool reconstructable =
        for_each_sibling(oid, [&](ObjectId peer, OsdId peer_osd) {
          if (osds_[peer_osd].failed()) return false;
          OsdIo peer_io = out_io;
          peer_io.oid = peer;
          peer_io.osd = peer_osd;
          peer_io.is_write = false;
          out.push_back(peer_io);
          return true;
        });
    if (reconstructable) {
      ++degraded_reads_;
    } else {
      // Two members of the stripe are gone: RAID-5 cannot serve this.
      out.resize(expansion_start);
      ++unavailable_requests_;
    }
  }
}

SimDuration Cluster::populate() {
  SimDuration total = 0;
  for (auto& osd : osds_) total += osd.populate_all();
  return total;
}

SimDuration Cluster::steady_state_warmup() {
  SimDuration total = 0;
  for (auto& osd : osds_) {
    const std::uint64_t budget = osd.ssd().config().physical_pages();
    std::uint64_t written = 0;
    while (written < budget) {
      const std::uint64_t before = written;
      osd.store().for_each_object([&](ObjectId oid) {
        if (written >= budget) return;
        for (const Extent& e : *osd.store().extents(oid)) {
          if (written >= budget) break;
          const auto pages = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(e.pages, budget - written));
          total += osd.ssd().write_range(e.first, pages);
          written += pages;
        }
      });
      if (written == before) break;  // empty OSD: nothing to cycle
    }
  }
  return total;
}

void Cluster::reset_flash_stats() {
  for (auto& osd : osds_) {
    osd.ssd().reset_stats();
    // Warm-up traffic ran through the untimed path; clear any busy
    // horizons so the measured window starts from an idle device.
    osd.ssd().reset_timeline();
  }
}

Cluster::MigrationAdmit Cluster::admit_migration(ObjectId oid, OsdId dst) {
  const MigrationAdmit verdict = admit_migration_impl(oid, dst);
  if (verdict != MigrationAdmit::kOk &&
      tel_migrations_admit_rejected_ != nullptr) {
    tel_migrations_admit_rejected_->inc();
  }
  return verdict;
}

Cluster::MigrationAdmit Cluster::admit_migration_impl(ObjectId oid, OsdId dst) {
  if (in_flight_.count(oid)) return MigrationAdmit::kAlreadyInFlight;
  const OsdId src = locate(oid);
  if (src == dst) return MigrationAdmit::kSameOsd;
  if (osds_[src].failed()) return MigrationAdmit::kSourceFailed;
  if (osds_[dst].failed()) return MigrationAdmit::kDestinationFailed;
  // A quarantined device may shed objects (src) but never receive them.
  if (osd_quarantined(dst)) return MigrationAdmit::kDestinationQuarantined;
  if (!placement_.same_group(src, dst)) {
    throw std::logic_error(
        "Cluster: cross-group migration violates the RAID-5 reliability "
        "invariant (paper SIII.D)");
  }
  const std::uint32_t pages = osds_[src].object_pages(oid);
  if (pages == 0) return MigrationAdmit::kEmptyObject;
  Osd& target = osds_[dst];
  const double post_util =
      static_cast<double>(target.store().allocated_pages() + pages) /
      static_cast<double>(target.capacity_pages());
  if (post_util > kDestinationUtilizationCap) {
    return MigrationAdmit::kOverCap;
  }
  if (!target.add_object(oid, pages)) return MigrationAdmit::kNoSpace;
  in_flight_[oid] = Move{src, dst};
  return MigrationAdmit::kOk;
}

void Cluster::attach_telemetry(telemetry::Recorder* recorder) {
  tel_ = recorder;
  tel_migrations_completed_ = nullptr;
  tel_migrations_admit_rejected_ = nullptr;
  tel_rebuild_commits_ = nullptr;
  for (auto& osd : osds_) osd.attach_telemetry(recorder);
  if (tel_ != nullptr) {
    if (auto* metrics = tel_->metrics()) {
      tel_migrations_completed_ = metrics->counter("cluster.migrations_completed");
      tel_migrations_admit_rejected_ =
          metrics->counter("cluster.migrations_admit_rejected");
      tel_rebuild_commits_ = metrics->counter("cluster.rebuild_commits");
    }
  }
}

void Cluster::complete_migration(ObjectId oid) {
  auto it = in_flight_.find(oid);
  if (it == in_flight_.end()) {
    throw std::logic_error(
        "Cluster::complete_migration: object " + std::to_string(oid) +
        " has no migration in flight (already completed or aborted?)");
  }
  const Move move = it->second;
  in_flight_.erase(it);
  osds_[move.src].remove_object(oid);
  drop_fast_extent(oid);  // home copy gone; the entry must never be reused
  set_location(oid, move.dst);
  ++migrations_completed_;
  if (tel_migrations_completed_ != nullptr) tel_migrations_completed_->inc();
}

void Cluster::set_location(ObjectId oid, OsdId osd) {
  location_[oid] = osd;
  remap_.set(oid, osd,
             placement_.default_osd(placement_.file_of(oid),
                                    placement_.index_of(oid)));
  remap_.count_update();
}

void Cluster::abort_migration(ObjectId oid) {
  auto it = in_flight_.find(oid);
  if (it == in_flight_.end()) {
    throw std::logic_error(
        "Cluster::abort_migration: object " + std::to_string(oid) +
        " has no migration in flight (double abort releases the "
        "destination reservation twice)");
  }
  const Move move = it->second;
  in_flight_.erase(it);
  osds_[move.dst].remove_object(oid);
}

OsdId Cluster::migration_destination(ObjectId oid) const {
  auto it = in_flight_.find(oid);
  if (it == in_flight_.end()) {
    throw std::logic_error(
        "Cluster::migration_destination: object " + std::to_string(oid) +
        " has no migration in flight");
  }
  return it->second.dst;
}

std::optional<OsdId> Cluster::healthy_destination(ObjectId oid) const {
  const OsdId src = locate(oid);
  const std::uint32_t pages = osds_[src].object_pages(oid);
  if (pages == 0) return std::nullopt;
  std::optional<OsdId> best;
  double best_util = 2.0;
  for (OsdId peer : placement_.group_peers(src)) {
    const Osd& target = osds_[peer];
    if (target.failed()) continue;
    if (osd_quarantined(peer)) continue;  // sick device: source-only
    const double post_util =
        static_cast<double>(target.store().allocated_pages() + pages) /
        static_cast<double>(target.capacity_pages());
    if (post_util > kDestinationUtilizationCap) continue;
    if (target.free_pages() < pages) continue;
    if (target.utilization() < best_util) {
      best_util = target.utilization();
      best = peer;
    }
  }
  return best;
}

std::uint64_t Cluster::total_erase_count() const {
  std::uint64_t total = 0;
  for (const auto& osd : osds_) total += osd.flash_stats().erase_count;
  return total;
}

std::uint64_t Cluster::total_host_page_writes() const {
  std::uint64_t total = 0;
  for (const auto& osd : osds_) total += osd.flash_stats().host_page_writes;
  return total;
}

}  // namespace edm::cluster
