#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <set>

#include "trace/generator.h"
#include "trace/profile.h"

namespace edm::cluster {
namespace {

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.num_osds = 8;
  cfg.num_groups = 4;
  cfg.objects_per_file = 4;
  cfg.flash.num_blocks = 64;
  cfg.flash.pages_per_block = 16;
  return cfg;
}

std::vector<trace::FileSpec> uniform_files(std::size_t n,
                                           std::uint64_t bytes) {
  std::vector<trace::FileSpec> files;
  for (FileId f = 0; f < n; ++f) files.push_back({f, bytes});
  return files;
}

TEST(Cluster, CreatesAllObjectsAtHashHomes) {
  const auto files = uniform_files(40, 64 * 1024);
  Cluster cluster(small_config(), files);
  for (FileId f = 0; f < files.size(); ++f) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      const ObjectId oid = cluster.placement().object_id(f, j);
      const OsdId home = cluster.placement().default_osd(f, j);
      EXPECT_EQ(cluster.locate(oid), home);
      EXPECT_TRUE(cluster.osd(home).has_object(oid));
      EXPECT_GT(cluster.object_pages(oid), 0u);
    }
  }
  EXPECT_EQ(cluster.object_count(), 160u);
}

TEST(Cluster, CapacitySizingHitsUtilizationTarget) {
  ClusterConfig cfg = small_config();
  cfg.target_max_utilization = 0.70;
  Cluster cluster(cfg, uniform_files(64, 256 * 1024));
  double max_util = 0;
  for (OsdId i = 0; i < cluster.num_osds(); ++i) {
    max_util = std::max(max_util, cluster.osd(i).utilization());
  }
  EXPECT_LE(max_util, 0.72);
  EXPECT_GT(max_util, 0.50);  // not absurdly oversized
}

TEST(Cluster, AllSsdsSameCapacity) {
  Cluster cluster(small_config(), uniform_files(40, 128 * 1024));
  const auto c0 = cluster.osd(0).capacity_pages();
  for (OsdId i = 1; i < cluster.num_osds(); ++i) {
    EXPECT_EQ(cluster.osd(i).capacity_pages(), c0);
  }
}

TEST(Cluster, RejectsSparseFileIds) {
  auto files = uniform_files(4, 64 * 1024);
  files[2].id = 100;
  EXPECT_THROW(Cluster(small_config(), files), std::invalid_argument);
}

TEST(Cluster, ConfigValidation) {
  ClusterConfig cfg = small_config();
  cfg.stripe_unit = 1000;  // not a page multiple
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.target_max_utilization = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  cfg.destination_utilization_cap = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config();
  // Cross-field: a destination cap below the population target would
  // reject every migration destination from the first shuffle.
  cfg.target_max_utilization = 0.76;
  cfg.destination_utilization_cap = 0.50;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Cluster, MapRequestReadTouchesOnlyDataObjects) {
  Cluster cluster(small_config(), uniform_files(8, 256 * 1024));
  trace::Record rec{/*file=*/3, /*offset=*/0, /*size=*/32 * 1024,
                    trace::OpType::kRead, 0};
  std::vector<OsdIo> ios;
  cluster.map_request(rec, ios);
  ASSERT_FALSE(ios.empty());
  std::uint64_t pages = 0;
  for (const auto& io : ios) {
    EXPECT_FALSE(io.is_write);
    EXPECT_FALSE(io.is_parity);
    pages += io.pages;
  }
  EXPECT_EQ(pages, 32u * 1024u / 4096u);
}

TEST(Cluster, MapRequestWriteIncludesParityRmw) {
  Cluster cluster(small_config(), uniform_files(8, 256 * 1024));
  trace::Record rec{3, 0, 8 * 1024, trace::OpType::kWrite, 0};
  std::vector<OsdIo> ios;
  cluster.map_request(rec, ios);
  int data_writes = 0;
  int parity_writes = 0;
  int reads = 0;
  for (const auto& io : ios) {
    if (io.is_write && !io.is_parity) ++data_writes;
    if (io.is_write && io.is_parity) ++parity_writes;
    if (!io.is_write) ++reads;
  }
  EXPECT_GE(data_writes, 1);
  EXPECT_GE(parity_writes, 1);
  EXPECT_EQ(reads, data_writes + parity_writes);  // RMW pre-reads
}

TEST(Cluster, MapRequestMetadataOpsAreFree) {
  Cluster cluster(small_config(), uniform_files(8, 64 * 1024));
  std::vector<OsdIo> ios;
  cluster.map_request({1, 0, 0, trace::OpType::kOpen, 0}, ios);
  cluster.map_request({1, 0, 0, trace::OpType::kClose, 0}, ios);
  EXPECT_TRUE(ios.empty());
}

TEST(Cluster, MapRequestClampsBeyondEof) {
  Cluster cluster(small_config(), uniform_files(8, 16 * 1024));
  trace::Record rec{1, 12 * 1024, 64 * 1024, trace::OpType::kRead, 0};
  std::vector<OsdIo> ios;
  cluster.map_request(rec, ios);
  std::uint64_t bytes = 0;
  for (const auto& io : ios) bytes += io.pages * 4096ull;
  EXPECT_LE(bytes, 16u * 1024u);
}

TEST(Cluster, PopulateWritesAllObjectPages) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  cluster.populate();
  EXPECT_GT(cluster.total_host_page_writes(), 0u);
  cluster.reset_flash_stats();
  EXPECT_EQ(cluster.total_host_page_writes(), 0u);
}

TEST(Cluster, SteadyStateWarmupFillsFreePool) {
  Cluster cluster(small_config(), uniform_files(16, 256 * 1024));
  cluster.populate();
  cluster.steady_state_warmup();
  // After a capacity's worth of churn, every device must have erased.
  for (OsdId i = 0; i < cluster.num_osds(); ++i) {
    EXPECT_GT(cluster.osd(i).flash_stats().erase_count, 0u) << "osd " << i;
  }
}

TEST(Cluster, MigrationLifecycle) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);  // on osd 3
  const OsdId src = cluster.locate(oid);
  const auto peers = cluster.placement().group_peers(src);
  const OsdId dst = peers.front();
  const auto pages = cluster.object_pages(oid);

  ASSERT_TRUE(cluster.begin_migration(oid, dst));
  EXPECT_TRUE(cluster.migration_in_flight(oid));
  EXPECT_EQ(cluster.locate(oid), src);  // still at source until complete
  EXPECT_TRUE(cluster.osd(dst).has_object(oid));  // space reserved

  cluster.complete_migration(oid);
  EXPECT_FALSE(cluster.migration_in_flight(oid));
  EXPECT_EQ(cluster.locate(oid), dst);
  EXPECT_FALSE(cluster.osd(src).has_object(oid));
  EXPECT_EQ(cluster.object_pages(oid), pages);
  EXPECT_EQ(cluster.migrations_completed(), 1u);
  EXPECT_TRUE(cluster.remap().contains(oid));
}

TEST(Cluster, ForEachSiblingVisitsTheOtherObjectsAtTheirCurrentOsds) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const Placement& place = cluster.placement();
  // Move sibling 3 of file 2 so its current OSD differs from its home.
  const ObjectId moved = place.object_id(2, 3);
  const OsdId away = place.group_peers(cluster.locate(moved)).front();
  ASSERT_TRUE(cluster.begin_migration(moved, away));
  cluster.complete_migration(moved);

  std::vector<ObjectId> seen;
  std::vector<OsdId> at;
  EXPECT_TRUE(cluster.for_each_sibling(place.object_id(2, 1),
                                       [&](ObjectId sibling, OsdId osd) {
                                         seen.push_back(sibling);
                                         at.push_back(osd);
                                         return true;
                                       }));
  EXPECT_EQ(seen, (std::vector<ObjectId>{place.object_id(2, 0),
                                         place.object_id(2, 2), moved}));
  EXPECT_EQ(at, (std::vector<OsdId>{place.default_osd(2, 0),
                                    place.default_osd(2, 2), away}));

  // A visit returning false stops the walk, and the walk reports it.
  std::size_t visits = 0;
  EXPECT_FALSE(cluster.for_each_sibling(place.object_id(2, 0),
                                        [&](ObjectId, OsdId) {
                                          ++visits;
                                          return false;
                                        }));
  EXPECT_EQ(visits, 1u);
}

TEST(Cluster, MigrationBackHomeClearsRemapEntry) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId home = cluster.locate(oid);
  const OsdId away = cluster.placement().group_peers(home).front();
  ASSERT_TRUE(cluster.begin_migration(oid, away));
  cluster.complete_migration(oid);
  EXPECT_EQ(cluster.remap().size(), 1u);
  ASSERT_TRUE(cluster.begin_migration(oid, home));
  cluster.complete_migration(oid);
  EXPECT_EQ(cluster.remap().size(), 0u);
  EXPECT_EQ(cluster.locate(oid), home);
}

TEST(Cluster, AbortMigrationRestoresState) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  const OsdId dst = cluster.placement().group_peers(src).front();
  ASSERT_TRUE(cluster.begin_migration(oid, dst));
  cluster.abort_migration(oid);
  EXPECT_FALSE(cluster.migration_in_flight(oid));
  EXPECT_EQ(cluster.locate(oid), src);
  EXPECT_FALSE(cluster.osd(dst).has_object(oid));
  EXPECT_EQ(cluster.migrations_completed(), 0u);
}

TEST(Cluster, CrossGroupMigrationThrows) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  // Find an OSD in a different group.
  OsdId other = 0;
  while (cluster.placement().same_group(src, other)) ++other;
  EXPECT_THROW(cluster.begin_migration(oid, other), std::logic_error);
}

TEST(Cluster, MigrationToSelfOrDuplicateRejected) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  EXPECT_FALSE(cluster.begin_migration(oid, src));
  const OsdId dst = cluster.placement().group_peers(src).front();
  ASSERT_TRUE(cluster.begin_migration(oid, dst));
  EXPECT_FALSE(cluster.begin_migration(oid, dst));  // already in flight
  cluster.abort_migration(oid);
}

TEST(Cluster, MigrationRespectsDestinationUtilizationCap) {
  ClusterConfig cfg = small_config();
  // Every OSD starts at the population target (uniform files, large
  // enough that the minimum-capacity floor does not kick in), so a cap
  // equal to the target means any incoming object overshoots.
  cfg.destination_utilization_cap = cfg.target_max_utilization;
  Cluster cluster(cfg, uniform_files(16, 1024 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId dst =
      cluster.placement().group_peers(cluster.locate(oid)).front();
  EXPECT_FALSE(cluster.begin_migration(oid, dst));
  EXPECT_EQ(cluster.admit_migration(oid, dst),
            Cluster::MigrationAdmit::kOverCap);
}

TEST(Cluster, MigrationDestinationThrowsForUnknownObject) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  EXPECT_THROW(cluster.migration_destination(oid), std::logic_error);
  const OsdId dst =
      cluster.placement().group_peers(cluster.locate(oid)).front();
  ASSERT_TRUE(cluster.begin_migration(oid, dst));
  EXPECT_EQ(cluster.migration_destination(oid), dst);
  cluster.abort_migration(oid);
  EXPECT_THROW(cluster.migration_destination(oid), std::logic_error);
}

TEST(Cluster, AbortMigrationReleasesReservationExactlyOnce) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId dst =
      cluster.placement().group_peers(cluster.locate(oid)).front();
  const auto free_before = cluster.osd(dst).free_pages();
  ASSERT_TRUE(cluster.begin_migration(oid, dst));
  cluster.abort_migration(oid);
  EXPECT_EQ(cluster.osd(dst).free_pages(), free_before);
  // A second abort (or a complete after abort) must not release the
  // reservation twice -- it throws instead of corrupting the store.
  EXPECT_THROW(cluster.abort_migration(oid), std::logic_error);
  EXPECT_THROW(cluster.complete_migration(oid), std::logic_error);
  EXPECT_EQ(cluster.osd(dst).free_pages(), free_before);
}

TEST(Cluster, AdmitMigrationReportsFailedEndpoints) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  const OsdId dst = cluster.placement().group_peers(src).front();
  cluster.fail_osd(dst);
  EXPECT_EQ(cluster.admit_migration(oid, dst),
            Cluster::MigrationAdmit::kDestinationFailed);
  cluster.osd(dst).set_failed(false);
  cluster.fail_osd(src);
  EXPECT_EQ(cluster.admit_migration(oid, dst),
            Cluster::MigrationAdmit::kSourceFailed);
  cluster.osd(src).set_failed(false);
  EXPECT_EQ(cluster.admit_migration(oid, src),
            Cluster::MigrationAdmit::kSameOsd);
}

TEST(Cluster, HealthyDestinationSkipsFailedPeers) {
  Cluster cluster(small_config(), uniform_files(16, 64 * 1024));
  const ObjectId oid = cluster.placement().object_id(2, 1);
  const OsdId src = cluster.locate(oid);
  const auto peers = cluster.placement().group_peers(src);
  ASSERT_FALSE(peers.empty());
  const auto dst = cluster.healthy_destination(oid);
  ASSERT_TRUE(dst.has_value());
  EXPECT_TRUE(cluster.placement().same_group(src, *dst));
  // Fail every peer: no destination remains.
  for (OsdId peer : peers) cluster.fail_osd(peer);
  EXPECT_FALSE(cluster.healthy_destination(oid).has_value());
  for (OsdId peer : peers) cluster.osd(peer).set_failed(false);
}

TEST(Cluster, GroupInvariantSurvivesMigrations) {
  Cluster cluster(small_config(), uniform_files(32, 64 * 1024));
  // Move several objects around within their groups.
  for (FileId f = 0; f < 8; ++f) {
    const ObjectId oid = cluster.placement().object_id(f, 0);
    const OsdId dst =
        cluster.placement().group_peers(cluster.locate(oid)).front();
    if (cluster.begin_migration(oid, dst)) cluster.complete_migration(oid);
  }
  // Objects of every file still live in k distinct groups.
  for (FileId f = 0; f < 32; ++f) {
    std::set<std::uint32_t> groups;
    for (std::uint32_t j = 0; j < 4; ++j) {
      groups.insert(cluster.placement().group_of(
          cluster.locate(cluster.placement().object_id(f, j))));
    }
    ASSERT_EQ(groups.size(), 4u) << "file " << f;
  }
}

}  // namespace
}  // namespace edm::cluster
