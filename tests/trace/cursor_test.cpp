// Differential tests: the streaming pipeline (RecordStream / TraceCursor)
// must emit the byte-identical record sequence TraceGenerator::generate()
// materialises -- over every Table I profile, record for record -- and a
// cursor over a materialised trace must give the same lanes in place.
#include "trace/cursor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "trace/generator.h"
#include "trace/profile.h"

namespace edm::trace {
namespace {

bool same_record(const Record& a, const Record& b) {
  return a.file == b.file && a.offset == b.offset && a.size == b.size &&
         a.op == b.op && a.client == b.client;
}

// Scaled-down copies of the Table I workloads: the differential property is
// per-record, so a few tens of thousands of records per profile exercise
// every code path (hot-region writes, offset zipf, sequential wrap) without
// minutes of runtime.
std::vector<WorkloadProfile> scaled_table1() {
  std::vector<WorkloadProfile> out;
  for (const WorkloadProfile& p : table1_profiles()) {
    out.push_back(p.scaled(0.02));
  }
  return out;
}

TEST(RecordStream, MatchesGenerateOnAllTable1Profiles) {
  for (const WorkloadProfile& profile : scaled_table1()) {
    const Trace trace = TraceGenerator(profile, 8).generate();
    RecordStream stream(profile, 8);
    ASSERT_EQ(stream.files().size(), trace.files.size()) << profile.name;
    for (std::size_t f = 0; f < trace.files.size(); ++f) {
      ASSERT_EQ(stream.files()[f].id, trace.files[f].id) << profile.name;
      ASSERT_EQ(stream.files()[f].size_bytes, trace.files[f].size_bytes)
          << profile.name;
    }
    Record rec;
    std::size_t i = 0;
    while (stream.next(rec)) {
      ASSERT_LT(i, trace.records.size()) << profile.name;
      ASSERT_TRUE(same_record(rec, trace.records[i]))
          << profile.name << " diverges at record " << i;
      ++i;
    }
    EXPECT_EQ(i, trace.records.size()) << profile.name;
    // Exhausted streams stay exhausted.
    EXPECT_FALSE(stream.next(rec)) << profile.name;
  }
}

TEST(RecordStream, MatchesGenerateOnRandomProfile) {
  const WorkloadProfile profile = random_profile().scaled(0.05);
  const Trace trace = TraceGenerator(profile, 4).generate();
  RecordStream stream(profile, 4);
  Record rec;
  std::size_t i = 0;
  while (stream.next(rec)) {
    ASSERT_TRUE(same_record(rec, trace.records[i])) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, trace.records.size());
}

// Round-robin lane consumption must reassemble exactly the per-lane
// subsequences of the materialised trace.
TEST(TraceCursor, RoundRobinLanesMatchGenerate) {
  const WorkloadProfile profile = table1_profiles()[0].scaled(0.02);
  const std::uint16_t kLanes = 8;
  const Trace trace = TraceGenerator(profile, kLanes).generate();
  std::vector<std::vector<Record>> expected(kLanes);
  for (const Record& r : trace.records) {
    expected[r.client % kLanes].push_back(r);
  }

  TraceCursor cursor(profile, kLanes);
  EXPECT_EQ(cursor.lanes(), kLanes);
  std::vector<std::size_t> pos(kLanes, 0);
  std::uint16_t exhausted = 0;
  std::vector<bool> done(kLanes, false);
  Record rec;
  while (exhausted < kLanes) {
    for (std::uint16_t lane = 0; lane < kLanes; ++lane) {
      if (done[lane]) continue;
      if (!cursor.next(lane, rec)) {
        EXPECT_EQ(pos[lane], expected[lane].size()) << "lane " << lane;
        done[lane] = true;
        ++exhausted;
        continue;
      }
      ASSERT_LT(pos[lane], expected[lane].size()) << "lane " << lane;
      ASSERT_TRUE(same_record(rec, expected[lane][pos[lane]]))
          << "lane " << lane << " record " << pos[lane];
      ++pos[lane];
    }
  }
}

// Maximally skewed consumption -- drain lane 0 completely before touching
// the others -- still yields every lane's full subsequence (the cursor
// buffers what the draining lane skips past).
TEST(TraceCursor, SkewedConsumptionStillCompleteAndOrdered) {
  const WorkloadProfile profile = table1_profiles()[3].scaled(0.01);
  const std::uint16_t kLanes = 4;
  const Trace trace = TraceGenerator(profile, kLanes).generate();
  std::vector<std::vector<Record>> expected(kLanes);
  for (const Record& r : trace.records) {
    expected[r.client % kLanes].push_back(r);
  }

  TraceCursor cursor(profile, kLanes);
  Record rec;
  for (std::uint16_t lane = 0; lane < kLanes; ++lane) {
    std::size_t i = 0;
    while (cursor.next(lane, rec)) {
      ASSERT_LT(i, expected[lane].size());
      ASSERT_TRUE(same_record(rec, expected[lane][i]))
          << "lane " << lane << " record " << i;
      ++i;
    }
    EXPECT_EQ(i, expected[lane].size()) << "lane " << lane;
  }
  // Draining lane 0 first forces the cursor to buffer every record of the
  // other lanes: the high-water mark is visible and bounded by the trace.
  EXPECT_GT(cursor.max_lookahead(), 0u);
  EXPECT_LT(cursor.max_lookahead(), trace.records.size());
}

TEST(TraceCursor, TotalRecordsMatchesGenerateWithoutDisturbingPosition) {
  const WorkloadProfile profile = table1_profiles()[5].scaled(0.02);
  const Trace trace = TraceGenerator(profile, 8).generate();
  TraceCursor cursor(profile, 8);
  Record first_before;
  ASSERT_TRUE(cursor.next(0, first_before));
  // The counting pre-pass runs on an independent stream.
  EXPECT_EQ(cursor.total_records(), trace.records.size());
  EXPECT_EQ(cursor.total_records(), trace.records.size());  // cached
  Record second;
  ASSERT_TRUE(cursor.next(0, second));
  EXPECT_FALSE(same_record(first_before, second) &&
               trace.records.size() < 2);
}

// Balanced consumption (what the closed-loop simulator does) keeps the
// lookahead to session-burst skew, not a fraction of the trace.
TEST(TraceCursor, BalancedConsumptionHasSmallLookahead) {
  const WorkloadProfile profile = table1_profiles()[0].scaled(0.02);
  const std::uint16_t kLanes = 8;
  TraceCursor cursor(profile, kLanes);
  const std::uint64_t total = cursor.total_records();
  Record rec;
  std::uint16_t exhausted = 0;
  std::vector<bool> done(kLanes, false);
  while (exhausted < kLanes) {
    for (std::uint16_t lane = 0; lane < kLanes; ++lane) {
      if (!done[lane] && !cursor.next(lane, rec)) {
        done[lane] = true;
        ++exhausted;
      }
    }
  }
  // Round-robin consumption: the buffers hold session-burst skew (records
  // arrive per-lane in session-sized runs, so each lane queues a few
  // sessions' worth) -- a few percent of the trace, not O(total).
  EXPECT_LE(cursor.max_lookahead(), total / 10);
}

// ------------------------------------------------------- in-place lanes

/// The lanes by definition: record r goes to lane r.client % lanes, in
/// trace order.
std::vector<std::vector<Record>> brute_force_lanes(const Trace& trace,
                                                   std::uint16_t lanes) {
  std::vector<std::vector<Record>> out(lanes);
  for (const Record& r : trace.records) out[r.client % lanes].push_back(r);
  return out;
}

/// Drains every lane of an in-place cursor through next_run(), checking
/// that each span points into the trace and is a maximal run (the records
/// on either side of it belong to other lanes), and returns the
/// concatenated lanes.
std::vector<std::vector<Record>> drain_runs(const Trace& trace,
                                            TraceCursor& cursor) {
  std::vector<std::vector<Record>> out(cursor.lanes());
  const Record* first = trace.records.data();
  const Record* last = first + trace.records.size();
  for (std::uint16_t lane = 0; lane < cursor.lanes(); ++lane) {
    for (std::span<const Record> run = cursor.next_run(lane); !run.empty();
         run = cursor.next_run(lane)) {
      EXPECT_GE(run.data(), first) << "lane " << lane;
      EXPECT_LE(run.data() + run.size(), last) << "lane " << lane;
      if (run.data() > first) {
        EXPECT_NE(run.data()[-1].client % cursor.lanes(), lane)
            << "run is not maximal at its start, lane " << lane;
      }
      if (run.data() + run.size() < last) {
        EXPECT_NE(run.data()[run.size()].client % cursor.lanes(), lane)
            << "run is not maximal at its end, lane " << lane;
      }
      out[lane].insert(out[lane].end(), run.begin(), run.end());
    }
    // An exhausted lane stays exhausted.
    EXPECT_TRUE(cursor.next_run(lane).empty()) << "lane " << lane;
  }
  return out;
}

void expect_same_lanes(const std::vector<std::vector<Record>>& got,
                       const std::vector<std::vector<Record>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t lane = 0; lane < want.size(); ++lane) {
    ASSERT_EQ(got[lane].size(), want[lane].size()) << "lane " << lane;
    for (std::size_t i = 0; i < want[lane].size(); ++i) {
      ASSERT_TRUE(same_record(got[lane][i], want[lane][i]))
          << "lane " << lane << " record " << i;
    }
  }
}

Record tagged(std::uint16_t client, std::uint64_t offset) {
  return {0, offset, 512, OpType::kRead, client};
}

/// A one-file trace whose records carry the given client tags in order
/// (offsets number the records so every record is distinct).
Trace hand_built(const std::vector<std::uint16_t>& clients) {
  Trace trace;
  trace.name = "hand";
  trace.files = {{0, 1 << 20}};
  for (std::size_t i = 0; i < clients.size(); ++i) {
    trace.records.push_back(tagged(clients[i], i * 512));
  }
  return trace;
}

TEST(TraceCursor, InPlaceLanesMatchBruteForceOnGeneratedTrace) {
  const WorkloadProfile profile = table1_profiles()[0].scaled(0.02);
  const Trace trace = TraceGenerator(profile, 8).generate();
  // 8 lanes is the replay's shape; 3 folds tags 3..7 onto lower lanes.
  for (const std::uint16_t lanes : {8, 3}) {
    TraceCursor cursor(trace, lanes);
    EXPECT_EQ(cursor.lanes(), lanes);
    expect_same_lanes(drain_runs(trace, cursor),
                      brute_force_lanes(trace, lanes));
  }
}

TEST(TraceCursor, InPlaceLanesMatchBruteForceOnHandBuiltTraces) {
  struct Case {
    const char* what;
    std::vector<std::uint16_t> clients;
    std::uint16_t lanes;
  };
  const Case cases[] = {
      {"tags at or above lanes", {0, 4, 4, 9, 1, 5, 2, 6, 6, 3, 7, 300}, 4},
      {"runs of length one", {0, 1, 0, 1, 2, 0, 2, 1, 0}, 3},
      {"interleaving that is not session-shaped",
       {2, 2, 0, 1, 1, 1, 2, 0, 0, 2, 1, 0, 0, 0, 2},
       3},
      {"a lane with no records", {0, 2, 2, 0, 0, 2, 0}, 3},
      {"one lane", {0, 5, 3, 3, 1, 0, 7}, 1},
      {"one record", {6}, 4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const Trace trace = hand_built(c.clients);
    TraceCursor cursor(trace, c.lanes);
    expect_same_lanes(drain_runs(trace, cursor),
                      brute_force_lanes(trace, c.lanes));
  }
}

TEST(TraceCursor, InPlaceOneLaneIsOneRun) {
  const Trace trace = hand_built({0, 5, 3, 3, 1, 0, 7});
  TraceCursor cursor(trace, 1);
  const std::span<const Record> run = cursor.next_run(0);
  EXPECT_EQ(run.data(), trace.records.data());
  EXPECT_EQ(run.size(), trace.records.size());
  EXPECT_TRUE(cursor.next_run(0).empty());
}

TEST(TraceCursor, InPlaceEmptyTrace) {
  Trace trace;
  trace.name = "empty";
  TraceCursor cursor(trace, 4);
  EXPECT_EQ(cursor.lanes(), 4);
  EXPECT_EQ(cursor.total_records(), 0u);
  Record rec;
  for (std::uint16_t lane = 0; lane < 4; ++lane) {
    EXPECT_TRUE(cursor.next_run(lane).empty());
    EXPECT_FALSE(cursor.next(lane, rec));
  }
}

TEST(TraceCursor, InPlaceReportsTraceMetadata) {
  const WorkloadProfile profile = table1_profiles()[1].scaled(0.01);
  const Trace trace = TraceGenerator(profile, 8).generate();
  TraceCursor cursor(trace, 8);
  EXPECT_EQ(cursor.name(), trace.name);
  EXPECT_EQ(&cursor.files(), &trace.files);  // the trace's own table
  EXPECT_EQ(cursor.total_records(), trace.records.size());
  EXPECT_EQ(cursor.max_lookahead(), 0u);
  // Zero lanes is taken as one, as RecordStream takes zero clients.
  EXPECT_EQ(TraceCursor(trace, 0).lanes(), 1);
}

// next() walks the same lanes one record at a time, and next_run() after a
// partly consumed run returns the rest of that run before the next one.
TEST(TraceCursor, InPlaceNextAndNextRunInterleave) {
  const WorkloadProfile profile = table1_profiles()[2].scaled(0.01);
  const Trace trace = TraceGenerator(profile, 4).generate();
  const auto expected = brute_force_lanes(trace, 4);
  TraceCursor cursor(trace, 4);
  for (std::uint16_t lane = 0; lane < 4; ++lane) {
    std::vector<Record> got;
    Record rec;
    bool by_record = true;
    for (;;) {
      if (by_record) {
        if (!cursor.next(lane, rec)) break;
        got.push_back(rec);
      } else {
        const std::span<const Record> run = cursor.next_run(lane);
        if (run.empty()) break;
        got.insert(got.end(), run.begin(), run.end());
      }
      by_record = !by_record;
    }
    expect_same_lanes({got}, {expected[lane]});
  }
}

// A streaming next_run() hands out one record in a per-lane slot: the span
// survives other lanes' pulls (which buffer past it) and changes only at
// this lane's next call.
TEST(TraceCursor, StreamingRunIsOneRecordValidUntilItsLaneAdvances) {
  const WorkloadProfile profile = table1_profiles()[0].scaled(0.02);
  const Trace trace = TraceGenerator(profile, 4).generate();
  const auto expected = brute_force_lanes(trace, 4);
  TraceCursor cursor(profile, 4);
  std::vector<std::size_t> pos(4, 0);
  for (int round = 0; round < 200; ++round) {
    const std::span<const Record> held = cursor.next_run(0);
    ASSERT_EQ(held.size(), 1u);
    const Record copy = held.front();
    ASSERT_TRUE(same_record(copy, expected[0][pos[0]++]));
    // Other lanes pull several records each while lane 0's span is held.
    for (std::uint16_t lane = 1; lane < 4; ++lane) {
      for (int k = 0; k < 5; ++k) {
        const std::span<const Record> run = cursor.next_run(lane);
        ASSERT_EQ(run.size(), 1u);
        ASSERT_TRUE(same_record(run.front(), expected[lane][pos[lane]++]));
      }
    }
    ASSERT_TRUE(same_record(held.front(), copy)) << "round " << round;
  }
}

TEST(TraceCursor, FilesAvailableBeforeAnyRecordIsPulled) {
  const WorkloadProfile profile = table1_profiles()[1].scaled(0.01);
  const Trace trace = TraceGenerator(profile, 8).generate();
  TraceCursor cursor(profile, 8);
  ASSERT_EQ(cursor.files().size(), trace.files.size());
  EXPECT_EQ(cursor.name(), trace.name);
  for (std::size_t f = 0; f < trace.files.size(); ++f) {
    EXPECT_EQ(cursor.files()[f].size_bytes, trace.files[f].size_bytes);
  }
}

}  // namespace
}  // namespace edm::trace
