#include "telemetry/sampler.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace edm::telemetry {
namespace {

Sampler two_row_sampler() {
  Sampler s(1'000'000);
  SampleRow& r0 = s.add_row(1'000'000);
  r0.inflight_migration_bytes = 4096;
  r0.osds.resize(2);
  r0.osds[0] = {3, 0.5, 120.0, 10};
  r0.osds[1] = {0, 0.25, 60.0, 7};
  SampleRow& r1 = s.add_row(2'000'000);
  r1.osds.resize(2);
  return s;
}

TEST(Sampler, RejectsZeroInterval) {
  EXPECT_THROW(Sampler(0), std::invalid_argument);
}

TEST(Sampler, RowsAccumulateInOrder) {
  const Sampler s = two_row_sampler();
  ASSERT_EQ(s.rows().size(), 2u);
  EXPECT_EQ(s.rows()[0].t, 1'000'000);
  EXPECT_EQ(s.rows()[1].t, 2'000'000);
  EXPECT_EQ(s.rows()[0].osds[0].queue_depth, 3u);
}

TEST(Sampler, CsvHeaderMatchesOsdCount) {
  const Sampler s = two_row_sampler();
  std::ostringstream os;
  s.write_csv(os);
  const std::string out = os.str();
  const std::string header = out.substr(0, out.find('\n'));
  EXPECT_EQ(header,
            "t_us,inflight_migration_bytes,"
            "qd0,util0,load_ewma_us0,erases0,"
            "qd1,util1,load_ewma_us1,erases1");
  // Header + one line per row.
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 1u + s.rows().size());
  EXPECT_NE(out.find("1000000,4096,3,0.5,120,10,0,0.25,60,7"),
            std::string::npos);
}

TEST(Sampler, NonFiniteValuesClampedInExports) {
  Sampler s(500);
  SampleRow& r = s.add_row(500);
  r.osds.resize(1);
  r.osds[0].utilization = std::numeric_limits<double>::quiet_NaN();
  r.osds[0].load_ewma_us = std::numeric_limits<double>::infinity();
  // "inf" alone would match the inflight_migration_bytes CSV header, so
  // only the data lines (after the header newline) are scanned.
  std::ostringstream csv;
  s.write_csv(csv);
  const std::string data = csv.str().substr(csv.str().find('\n'));
  EXPECT_EQ(data.find("nan"), std::string::npos);
  EXPECT_EQ(data.find("inf"), std::string::npos);
}

TEST(Sampler, EmptySamplerStillWritesHeader) {
  Sampler s(1000);
  std::ostringstream os;
  s.write_csv(os);
  EXPECT_EQ(os.str(), "t_us,inflight_migration_bytes\n");
}

TEST(Sampler, ExportsCarryNoHostState) {
  // No peak_rss column anywhere: the series holds DES state only, which is
  // what lets the digest fixtures pin the exports byte for byte.
  const Sampler plain = two_row_sampler();
  std::ostringstream plain_csv;
  plain.write_csv(plain_csv);
  EXPECT_EQ(plain_csv.str().find("peak_rss"), std::string::npos);
}

}  // namespace
}  // namespace edm::telemetry
