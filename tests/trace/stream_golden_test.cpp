// Golden hashes of the synthetic trace source.
//
// RecordStream is the input of every experiment cell: generate() drains it
// into a materialised trace, TraceCursor fans it out for streaming replay
// and OpenLoopSource merges one per tenant.  A change to what it emits
// moves every downstream result, yet the digest fixtures reach only a few
// profiles.  These tests hash every field of every record and every file
// size the stream emits -- all eight profiles at two seed offsets -- plus
// the (at, tenant, record) sequence of a two-tenant open-loop merge with
// burst, diurnal and drift modulators on, and compare the hashes with
// fixtures under tests/data/stream/.
//
// Regenerating fixtures (only legitimate when a change intentionally alters
// the generated traces and says so):
//
//   EDM_DIGEST_REGEN=1 ./build/tests/trace_tests --gtest_filter='StreamGolden*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/cursor.h"
#include "trace/profile.h"
#include "workload/tenant.h"

namespace edm::trace {
namespace {

#ifndef EDM_TEST_DATA_DIR
#error "EDM_TEST_DATA_DIR must point at tests/data"
#endif

constexpr double kScale = 0.01;
constexpr std::uint64_t kSeedOffsets[] = {0, 7919};

/// 64-bit FNV-1a over fixed-width little-endian field encodings, so the
/// hash never sees struct padding.
class Fnv1a {
 public:
  void add(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(const Record& r) {
    add(r.file, 8);
    add(r.offset, 8);
    add(r.size, 4);
    add(static_cast<std::uint8_t>(r.op), 1);
    add(r.client, 2);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Compares `actual` with the named fixture, or rewrites it in regen mode.
void check_fixture(const std::string& name, const std::string& actual) {
  const std::string path = std::string(EDM_TEST_DATA_DIR) + "/stream/" + name;
  if (std::getenv("EDM_DIGEST_REGEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.is_open()) << "cannot write fixture " << path;
    os << actual;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open()) << "missing fixture " << path
                            << " (run with EDM_DIGEST_REGEN=1 to create)";
  std::ostringstream expected;
  expected << is.rdbuf();
  ASSERT_EQ(expected.str(), actual)
      << "generated trace drifted from its golden hashes (" << name << ")";
}

TEST(StreamGolden, RecordStreamEveryProfile) {
  std::vector<WorkloadProfile> profiles(table1_profiles().begin(),
                                        table1_profiles().end());
  profiles.push_back(random_profile());
  std::ostringstream table;
  table << "# profile seed_offset files records fnv1a64\n";
  for (const WorkloadProfile& base : profiles) {
    for (const std::uint64_t seed_offset : kSeedOffsets) {
      WorkloadProfile profile = base.scaled(kScale);
      profile.seed ^= seed_offset;
      RecordStream stream(profile, 8);
      Fnv1a h;
      for (const FileSpec& f : stream.files()) {
        h.add(f.id, 8);
        h.add(f.size_bytes, 8);
      }
      std::uint64_t records = 0;
      Record rec;
      while (stream.next(rec)) {
        h.add(rec);
        ++records;
      }
      table << profile.name << ' ' << seed_offset << ' '
            << stream.files().size() << ' ' << records << ' ' << h.hex()
            << '\n';
    }
  }
  check_fixture("record_streams.txt", table.str());
}

TEST(StreamGolden, OpenLoopMergeWithModulators) {
  workload::OpenLoopConfig cfg;
  for (const char* name : {"home02", "lair62"}) {
    workload::TenantSpec spec;
    spec.profile = name;
    spec.scale = kScale;
    spec.rate_ops_per_sec = 2000.0;
    spec.burst = {0.5, 0.4};
    spec.diurnal = {2.0, 0.5};
    spec.drift.period_s = 0.25;
    cfg.tenants.push_back(spec);
  }
  cfg.tenants[1].rate_ops_per_sec = 1000.0;
  std::ostringstream table;
  table << "# seed_offset arrivals fnv1a64\n";
  for (const std::uint64_t seed_offset : kSeedOffsets) {
    workload::OpenLoopSource source(cfg, 8, seed_offset);
    Fnv1a h;
    std::uint64_t arrivals = 0;
    workload::Arrival a;
    while (source.next(a)) {
      h.add(a.at, 8);
      h.add(a.tenant, 2);
      h.add(a.record);
      ++arrivals;
    }
    table << seed_offset << ' ' << arrivals << ' ' << h.hex() << '\n';
  }
  check_fixture("openloop_merge.txt", table.str());
}

}  // namespace
}  // namespace edm::trace
