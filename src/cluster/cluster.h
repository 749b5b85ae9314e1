// Cluster facade: OSD array + placement + RAID-5 layout + remapping table.
//
// This is the simulator's equivalent of the paper's MDS + OSD ensemble:
// it resolves file-level I/O into per-OSD object page I/O, tracks object
// locations through migrations, and enforces the intra-group migration
// invariant (paper SIII.A/D).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "cluster/osd.h"
#include "cluster/placement.h"
#include "cluster/raid5.h"
#include "cluster/remap_table.h"
#include "flash/config.h"
#include "trace/record.h"
#include "util/types.h"

namespace edm::telemetry {
class Recorder;
class Counter;
}  // namespace edm::telemetry

namespace edm::cluster {

struct ClusterConfig {
  std::uint32_t num_osds = 16;
  std::uint32_t num_groups = 4;       // m
  std::uint32_t objects_per_file = 4; // k
  std::uint32_t stripe_unit = 16 * 1024;

  /// Weighted grouping (paper SIII.D): when non-empty, each entry is one
  /// group's SSD count and overrides num_osds/num_groups.  Unequal sizes
  /// de-synchronise group wear-out so correlated end-of-life failures never
  /// span a RAID-5 stripe.
  std::vector<std::uint32_t> group_sizes;

  /// SSD capacity is sized so the most-utilized OSD sits at this fraction
  /// after population (paper SIV: "the capacity of each SSD is set to the
  /// same dynamically ... maximum utilization among all SSDs is about 70
  /// percent").  The paper's ~70% is *physical* (valid/physical)
  /// utilization; this store-level (allocated/logical) target of 0.76
  /// lands there after the ~7% over-provisioning discount.
  double target_max_utilization = 0.76;

  /// Migration destinations must stay below this utilization (paper
  /// SIII.B.5: "we guarantee that the free space in each destination device
  /// does not exceed a predefined threshold").
  double destination_utilization_cap = 0.90;

  /// Geometry/timing template; num_blocks is overridden per experiment by
  /// the dynamic capacity rule above.
  flash::FlashConfig flash;

  void validate() const;
};

/// One page-granular OSD request produced by striping a file-level request.
struct OsdIo {
  OsdId osd = 0;
  ObjectId oid = 0;
  std::uint32_t first_page = 0;  // object-relative
  std::uint32_t pages = 0;
  bool is_write = false;
  bool is_parity = false;
};

class Cluster {
 public:
  /// Builds the cluster for a given file population: sizes the SSDs, then
  /// creates every file's k objects at their hash homes.
  Cluster(ClusterConfig config, std::span<const trace::FileSpec> files);

  // --- Topology ---
  std::uint32_t num_osds() const { return static_cast<std::uint32_t>(osds_.size()); }
  Osd& osd(OsdId id) { return osds_[id]; }
  const Osd& osd(OsdId id) const { return osds_[id]; }
  const Placement& placement() const { return placement_; }
  const Raid5Layout& layout() const { return layout_; }
  const ClusterConfig& config() const { return config_; }

  // --- Object location ---
  /// Current OSD of an object (in-flight migrations still resolve to the
  /// source until completed).  Inline: it runs once per sub-request the
  /// simulator dispatches (plus once per RAID peer under degraded mode).
  /// Both override tables are empty for entire runs under the no-migration
  /// policies, so test the cheap empty() before paying for a hash probe;
  /// the common case is a single load from the precomputed home table.
  OsdId locate(ObjectId oid) const {
    if (!in_flight_.empty()) {
      if (auto it = in_flight_.find(oid); it != in_flight_.end()) {
        return it->second.src;
      }
    }
    if (!remap_.empty()) {
      if (auto remapped = remap_.lookup(oid)) return *remapped;
    }
    return default_home_[oid];
  }
  RemapTable& remap() { return remap_; }
  const RemapTable& remap() const { return remap_; }

  /// Direct-mapped device-I/O fast path.  An object that still sits as a
  /// single extent at its construction-time home has its (osd, lpn, pages)
  /// cached here, indexed by dense object id -- the simulator's execute()
  /// resolves such I/O with one array load instead of a hash probe into the
  /// per-OSD extent store.  pages == 0 means "no fast path, ask the store".
  ///
  /// Safety rule: an entry is only honoured when the request targets
  /// fe.osd, and every path that removes the home copy (migration
  /// completion, rebuild commit/teardown) clears the entry, so a stale
  /// entry can never be consulted for a device that no longer holds the
  /// data.
  struct FastExtent {
    OsdId osd = 0;
    Lpn first = 0;
    std::uint32_t pages = 0;  // 0 => fall back to the extent store
  };
  const FastExtent& fast_extent(ObjectId oid) const { return fast_[oid]; }

  /// Device time for an I/O resolved through `fe` (== fast_extent(io.oid),
  /// honoured: fe.pages != 0 and fe.osd == io.osd), dispatched into the
  /// device at absolute time `at` (flat devices ignore it).  Range clamping
  /// mirrors ObjectStore::map_range; an out-of-range or empty request
  /// costs nothing.
  SimDuration fast_extent_io_at(const FastExtent& fe, const OsdIo& io,
                                SimTime at) {
    if (io.first_page >= fe.pages || io.pages == 0) return 0;
    const std::uint32_t n = std::min(io.pages, fe.pages - io.first_page);
    flash::Ssd& ssd = osd(io.osd).ssd();
    return io.is_write ? ssd.write_range_at(at, fe.first + io.first_page, n)
                       : ssd.read_range_at(at, fe.first + io.first_page, n);
  }

  std::uint32_t object_pages(ObjectId oid) const;

  /// Walks the RAID-5 stripe siblings of `oid` -- the other k-1 objects of
  /// its file, in index order -- calling visit(sibling, osd) with each
  /// one's current OSD.  Every object stores one unit per stripe at the
  /// same object offset, so a sibling's page range stands in for the
  /// object's own.  Stops at the first visit that returns false and
  /// returns false; true once every sibling was visited.
  template <typename Visit>
  bool for_each_sibling(ObjectId oid, Visit&& visit) const {
    const FileId file = placement_.file_of(oid);
    const std::uint32_t self = placement_.index_of(oid);
    for (std::uint32_t j = 0; j < placement_.objects_per_file(); ++j) {
      if (j == self) continue;
      const ObjectId sibling = placement_.object_id(file, j);
      if (!visit(sibling, locate(sibling))) return false;
    }
    return true;
  }

  // --- File I/O mapping ---
  /// Resolves a file-level request into per-OSD page I/Os (appended).
  void map_request(const trace::Record& record, std::vector<OsdIo>& out) const;

  std::uint64_t file_bytes(FileId file) const { return file_bytes_[file]; }
  std::size_t file_count() const { return file_bytes_.size(); }
  std::uint64_t object_count() const {
    return file_bytes_.size() * placement_.objects_per_file();
  }

  // --- Population (pre-create + populate, paper SIV) ---
  /// Writes every allocated object page once on every OSD and returns the
  /// total device time.
  SimDuration populate();

  /// Drives every SSD into GC steady state by cycling dummy writes over the
  /// allocated pages until a full physical capacity's worth of pages has
  /// been written (the paper's "dummy data equal to the SSD's capacity are
  /// first written into each SSD" step, SIV).  Without this, devices start
  /// the measured window with an empty free pool and low-write OSDs never
  /// garbage-collect at all, which wildly distorts per-device erase counts.
  SimDuration steady_state_warmup();

  /// Zeroes flash counters to start the measured window.
  void reset_flash_stats();

  // --- Migration ---
  /// Why a migration could not be admitted (kOk = it was).  The distinction
  /// matters to the failure-aware mover: a kDestinationFailed or
  /// kDestinationQuarantined move can be re-planned to a healthy peer, a
  /// kSourceFailed one needs rebuild, the rest are permanent skips for
  /// this shuffle.
  enum class MigrationAdmit {
    kOk,
    kSameOsd,
    kAlreadyInFlight,
    kSourceFailed,
    kDestinationFailed,
    kDestinationQuarantined,
    kEmptyObject,
    kOverCap,
    kNoSpace,
  };

  /// Reserves space for `oid` on `dst` and marks the move in flight;
  /// returns the admission verdict.  Throws std::logic_error on a
  /// cross-group move (invariant violation).
  MigrationAdmit admit_migration(ObjectId oid, OsdId dst);

  /// Convenience wrapper: true iff admit_migration() returned kOk.
  bool begin_migration(ObjectId oid, OsdId dst) {
    return admit_migration(oid, dst) == MigrationAdmit::kOk;
  }

  /// Finishes an in-flight move: frees + trims the source copy and updates
  /// the remapping table.  Throws std::logic_error when no move of `oid`
  /// is in flight (e.g. completed or aborted twice).
  void complete_migration(ObjectId oid);

  /// Cancels an in-flight move, releasing the destination reservation
  /// exactly once.  Throws std::logic_error when no move of `oid` is in
  /// flight.
  void abort_migration(ObjectId oid);

  bool migration_in_flight(ObjectId oid) const {
    return in_flight_.count(oid) != 0;
  }

  /// Destination of an in-flight move.  Throws std::logic_error for
  /// objects with no move in flight (was a raw out_of_range before).
  OsdId migration_destination(ObjectId oid) const;

  /// Least-utilized healthy same-group peer that can accept `oid` under
  /// the destination utilization cap, or nullopt.  Used to re-plan a
  /// migration whose destination died mid-flight and to place rebuilt
  /// objects.
  std::optional<OsdId> healthy_destination(ObjectId oid) const;

  /// Lifetime count of completed migrations (Fig. 8 metric).
  std::uint64_t migrations_completed() const { return migrations_completed_; }

  // --- Failure & recovery (paper SIII.D) ---
  /// Marks an OSD failed: its data becomes inaccessible.  Reads of its
  /// objects are transparently reconstructed from RAID-5 peers by
  /// map_request (k-1 sibling reads); writes to it are lost until rebuild.
  void fail_osd(OsdId id) {
    if (!osds_[id].failed()) {
      osds_[id].set_failed(true);
      ++num_failed_;
    }
  }
  bool osd_failed(OsdId id) const { return osds_[id].failed(); }
  /// True while at least one OSD is failed.  Hot paths (map_request, the
  /// dispatch loop) test this O(1) flag before paying a per-request load
  /// of the target Osd's failed bit -- healthy runs never touch it.
  bool any_failed() const { return num_failed_ != 0; }
  std::uint32_t failed_count() const { return num_failed_; }

  // --- Quarantine (fail-slow mitigation, paper-extension) ---
  /// A quarantined OSD still serves I/O (it is sick, not dead) but is
  /// excluded as a migration destination: the mover treats it as a source
  /// only, so data drains *off* it while nothing new lands *on* it.  Set
  /// and cleared by the simulator's health monitor; independent of the
  /// failed bit.
  void set_quarantined(OsdId id, bool q) {
    if (quarantined_.empty()) quarantined_.assign(osds_.size(), 0);
    if (quarantined_[id] == static_cast<std::uint8_t>(q)) return;
    quarantined_[id] = static_cast<std::uint8_t>(q);
    if (q) {
      ++num_quarantined_;
    } else {
      --num_quarantined_;
    }
  }
  bool osd_quarantined(OsdId id) const {
    return !quarantined_.empty() && quarantined_[id] != 0;
  }
  bool any_quarantined() const { return num_quarantined_ != 0; }
  std::uint32_t quarantined_count() const { return num_quarantined_; }

  /// Files with two or more objects on failed OSDs are unreconstructable
  /// (RAID-5 tolerates one lost member per stripe).  With intra-group
  /// migration this is zero whenever all failures fall in one group -- the
  /// paper's reliability argument.
  std::uint64_t count_unavailable_files() const;

  struct RebuildStats {
    std::uint64_t objects = 0;          // successfully reconstructed
    std::uint64_t unrecoverable = 0;    // a needed peer was also failed
    std::uint64_t unplaced = 0;         // no healthy group peer had space
    std::uint64_t pages_written = 0;    // to the rebuild destinations
    std::uint64_t peer_pages_read = 0;  // reconstruction reads
    SimDuration device_time = 0;        // total flash time consumed
  };

  /// Reconstructs every object of `dead` from its RAID-5 peers onto
  /// healthy OSDs of the same group (preserving the distinct-group
  /// invariant), then returns the device to service empty and healthy.
  /// This is the *instantaneous* variant (state mutates, device time is
  /// only tallied); the simulator's online rebuild drives the same
  /// per-object steps below through the OSD queues instead.
  RebuildStats rebuild_osd(OsdId dead);

  // --- Object-granular rebuild steps (online rebuild building blocks) ---
  /// Outcome of admitting one object into a rebuild.
  enum class RebuildOutcome {
    kPlaced,         // destination reserved; copy may proceed
    kUnrecoverable,  // a needed RAID-5 peer is also failed
    kUnplaced,       // no healthy group peer had space
  };

  /// Sorted snapshot of the objects resident on `dead` (metadata survives
  /// a device failure -- it lives on the MDS).
  std::vector<ObjectId> failed_objects(OsdId dead) const;

  /// Checks recoverability of one victim object and reserves space for it
  /// on the least-utilized healthy group peer.  On kPlaced, `dst` holds
  /// the reservation target.  Throws std::logic_error if the object has a
  /// migration in flight (the mover must abort it first).
  RebuildOutcome prepare_object_rebuild(OsdId dead, ObjectId oid, OsdId& dst);

  /// Releases a reservation made by prepare_object_rebuild (the copy was
  /// abandoned, e.g. the destination or a peer failed mid-rebuild).
  void abort_object_rebuild(ObjectId oid, OsdId dst);

  /// Commits a finished copy: points the remapping table at the rebuilt
  /// replica and drops the dead device's stale copy.
  void commit_object_rebuild(OsdId dead, ObjectId oid, OsdId dst);

  /// Ends a rebuild: drops whatever remains on `dead` (unrecoverable or
  /// unplaced objects stay lost) and returns the device to service empty
  /// and healthy.
  void finish_rebuild(OsdId dead);

  /// Degraded-mode accounting (since construction).
  std::uint64_t degraded_reads() const { return degraded_reads_; }
  std::uint64_t lost_writes() const { return lost_writes_; }
  std::uint64_t unavailable_requests() const { return unavailable_requests_; }

  /// Accounting hooks for the simulator's event-time degraded paths: a
  /// sub-request already queued when its OSD died is re-resolved by the
  /// DES, not by map_request, but the counters must stay in one place.
  void note_degraded_read() const { ++degraded_reads_; }
  void note_lost_write() const { ++lost_writes_; }
  void note_unavailable_request() const { ++unavailable_requests_; }

  // --- Cluster-wide accounting ---
  std::uint64_t total_erase_count() const;
  std::uint64_t total_host_page_writes() const;

  // --- Telemetry ---
  /// Hooks the whole ensemble into a run's telemetry: every OSD's flash
  /// device (GC spans/counters) plus migration- and rebuild-level counters
  /// maintained here.  Null detaches.  One recorder per simulation; the
  /// cluster never shares it across threads.
  void attach_telemetry(telemetry::Recorder* recorder);

 private:
  struct Move {
    OsdId src;
    OsdId dst;
  };

  MigrationAdmit admit_migration_impl(ObjectId oid, OsdId dst);

  ClusterConfig config_;
  Placement placement_;
  Raid5Layout layout_;
  std::vector<Osd> osds_;
  std::vector<std::uint64_t> file_bytes_;
  // Object ids are dense (file * k + index with dense file ids), so the
  // default placement is precomputed once: locate() on the hot dispatch
  // path becomes one array load instead of three integer divisions
  // (file_of, index_of, and the placement hash).
  std::vector<OsdId> default_home_;
  // Fast-path table (see fast_extent()).  Entries are dropped -- never
  // re-established -- once an object's home copy moves or fragments;
  // migrated objects are a small fraction of the population, so the replay
  // hot path keeps the O(1) resolution for nearly all I/O.
  std::vector<FastExtent> fast_;
  void drop_fast_extent(ObjectId oid) { fast_[oid].pages = 0; }
  // log2(page_size) when the page size is a power of two (every stock
  // config), letting map_request turn byte->page divisions into shifts;
  // -1 falls back to division.
  int page_shift_ = -1;
  RemapTable remap_;
  std::unordered_map<ObjectId, Move> in_flight_;
  std::uint64_t migrations_completed_ = 0;
  std::uint32_t num_failed_ = 0;  // maintained by fail_osd/finish_rebuild
  // Quarantine bits (lazily sized on first use so quarantine-free runs
  // allocate nothing); maintained by set_quarantined.
  std::vector<std::uint8_t> quarantined_;
  std::uint32_t num_quarantined_ = 0;

  // Degraded-mode counters; mutable because map_request is logically const
  // (placement does not change) but must account reconstruction traffic.
  // The cluster is owned by one single-threaded simulation.
  mutable std::uint64_t degraded_reads_ = 0;
  mutable std::uint64_t lost_writes_ = 0;
  mutable std::uint64_t unavailable_requests_ = 0;

  // Telemetry handles (null = off).
  telemetry::Recorder* tel_ = nullptr;
  telemetry::Counter* tel_migrations_completed_ = nullptr;
  telemetry::Counter* tel_migrations_admit_rejected_ = nullptr;
  telemetry::Counter* tel_rebuild_commits_ = nullptr;
};

}  // namespace edm::cluster
