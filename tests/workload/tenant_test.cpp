#include "workload/tenant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace edm::workload {
namespace {

TenantSpec small_tenant(const std::string& profile, double rate) {
  TenantSpec spec;
  spec.profile = profile;
  spec.scale = 0.01;
  spec.rate_ops_per_sec = rate;
  return spec;
}

OpenLoopConfig two_tenant_config() {
  OpenLoopConfig cfg;
  cfg.tenants = {small_tenant("home02", 2000.0),
                 small_tenant("lair62", 1000.0)};
  return cfg;
}

std::vector<Arrival> drain(OpenLoopSource& source) {
  std::vector<Arrival> out;
  Arrival a;
  while (source.next(a)) out.push_back(a);
  return out;
}

TEST(ParseTenantSpec, FullAndPartialForms) {
  TenantSpec defaults = small_tenant("home02", 500.0);
  defaults.slo_ms = 80.0;

  const TenantSpec full = parse_tenant_spec("lair62:800:50:0.2", defaults);
  EXPECT_EQ(full.profile, "lair62");
  EXPECT_DOUBLE_EQ(full.rate_ops_per_sec, 800.0);
  EXPECT_DOUBLE_EQ(full.slo_ms, 50.0);
  EXPECT_DOUBLE_EQ(full.scale, 0.2);

  const TenantSpec partial = parse_tenant_spec("deasna:300", defaults);
  EXPECT_EQ(partial.profile, "deasna");
  EXPECT_DOUBLE_EQ(partial.rate_ops_per_sec, 300.0);
  EXPECT_DOUBLE_EQ(partial.slo_ms, 80.0);   // inherited
  EXPECT_DOUBLE_EQ(partial.scale, 0.01);    // inherited

  const TenantSpec skipped = parse_tenant_spec("home03::25", defaults);
  EXPECT_DOUBLE_EQ(skipped.rate_ops_per_sec, 500.0);  // empty = inherit
  EXPECT_DOUBLE_EQ(skipped.slo_ms, 25.0);
}

TEST(ParseTenantSpec, Rejections) {
  const TenantSpec defaults = small_tenant("home02", 500.0);
  EXPECT_THROW(parse_tenant_spec("", defaults), std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("a:1:2:3:4", defaults),
               std::invalid_argument);
  EXPECT_THROW(parse_tenant_spec("home02:abc", defaults),
               std::invalid_argument);
}

TEST(OpenLoopConfigValidate, CatchesBadTenants) {
  OpenLoopConfig cfg = two_tenant_config();
  EXPECT_NO_THROW(cfg.validate());
  cfg.tenants[1].rate_ops_per_sec = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = two_tenant_config();
  cfg.tenants[0].profile = "no-such-trace";
  // profile_by_name reports unknown names as std::out_of_range.
  EXPECT_THROW(cfg.validate(), std::out_of_range);
  cfg = two_tenant_config();
  cfg.tenants[0].arrival = ArrivalKind::kClosed;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(OpenLoopSource, MergedArrivalsAreTimeOrdered) {
  OpenLoopSource source(two_tenant_config(), 4);
  const auto arrivals = drain(source);
  ASSERT_GT(arrivals.size(), 1000u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i].at, arrivals[i - 1].at);
  }
}

TEST(OpenLoopSource, TenantsGetDisjointFileRanges) {
  OpenLoopSource source(two_tenant_config(), 4);
  // The combined population has every id exactly once (rebased ranges
  // cannot collide).
  std::set<FileId> ids;
  for (const auto& f : source.files()) ids.insert(f.id);
  EXPECT_EQ(ids.size(), source.files().size());

  // Per-tenant records only touch that tenant's id range.
  const auto arrivals = drain(source);
  std::vector<FileId> min_id(2, ~FileId{0});
  std::vector<FileId> max_id(2, 0);
  for (const auto& a : arrivals) {
    ASSERT_LT(a.tenant, 2);
    min_id[a.tenant] = std::min(min_id[a.tenant], a.record.file);
    max_id[a.tenant] = std::max(max_id[a.tenant], a.record.file);
  }
  EXPECT_LT(max_id[0], min_id[1]);
}

TEST(OpenLoopSource, DeterministicAcrossInstances) {
  OpenLoopSource a(two_tenant_config(), 4);
  OpenLoopSource b(two_tenant_config(), 4);
  Arrival ra;
  Arrival rb;
  for (int i = 0; i < 5000; ++i) {
    const bool more_a = a.next(ra);
    const bool more_b = b.next(rb);
    ASSERT_EQ(more_a, more_b);
    if (!more_a) break;
    EXPECT_EQ(ra.at, rb.at);
    EXPECT_EQ(ra.tenant, rb.tenant);
    EXPECT_EQ(ra.record.file, rb.record.file);
    EXPECT_EQ(ra.record.offset, rb.record.offset);
  }
}

TEST(OpenLoopSource, ArrivalSeedDecorrelatesDraws) {
  OpenLoopConfig salted = two_tenant_config();
  salted.arrival_seed = 1234567;
  OpenLoopSource a(two_tenant_config(), 4);
  OpenLoopSource b(salted, 4);
  Arrival ra;
  Arrival rb;
  bool diverged = false;
  for (int i = 0; i < 200 && a.next(ra) && b.next(rb); ++i) {
    if (ra.at != rb.at) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(OpenLoopSource, TotalRecordsMatchesDrainAndKeepsPosition) {
  OpenLoopSource source(two_tenant_config(), 4);
  Arrival first;
  ASSERT_TRUE(source.next(first));
  const std::uint64_t total = source.total_records();
  // The pre-pass counts independent streams; one arrival was already
  // consumed from this source's own position.
  const auto rest = drain(source);
  EXPECT_EQ(total, rest.size() + 1);
}

TEST(OpenLoopSource, DuplicateProfilesGetIndexedNames) {
  OpenLoopConfig cfg;
  cfg.tenants = {small_tenant("home02", 500.0),
                 small_tenant("home02", 700.0),
                 small_tenant("lair62", 300.0)};
  OpenLoopSource source(cfg, 2);
  EXPECT_EQ(source.tenant_name(0), "home02#0");
  EXPECT_EQ(source.tenant_name(1), "home02#1");
  EXPECT_EQ(source.tenant_name(2), "lair62");
  EXPECT_EQ(source.name(), "home02+home02+lair62");
  EXPECT_DOUBLE_EQ(source.offered_ops_per_sec(), 1500.0);
}

TEST(OpenLoopSource, DriftRotatesFilesWithinTenantRange) {
  OpenLoopConfig cfg;
  cfg.tenants = {small_tenant("home02", 5000.0)};
  OpenLoopSource plain(cfg, 4);
  cfg.tenants[0].drift.period_s = 0.05;  // several rotations per run
  OpenLoopSource drifted(cfg, 4);

  const auto a = drain(plain);
  const auto b = drain(drifted);
  ASSERT_EQ(a.size(), b.size());

  const std::uint64_t file_count = plain.files().size();
  bool any_rotated = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Same record sequence and arrival stamps; only the id mapping moves.
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_LT(b[i].record.file, file_count);
    if (a[i].record.file != b[i].record.file) any_rotated = true;
  }
  EXPECT_TRUE(any_rotated);
}

TEST(OpenLoopSource, RequiresTenants) {
  OpenLoopConfig empty;
  EXPECT_THROW(OpenLoopSource(empty, 4), std::invalid_argument);
}

}  // namespace
}  // namespace edm::workload
