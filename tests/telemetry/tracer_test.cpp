#include "telemetry/tracer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace edm::telemetry {
namespace {

TEST(Tracer, RecordsCompleteAndInstantEvents) {
  Tracer tracer;
  tracer.complete(Category::kRequest, "op", track_client(0), 10, 5);
  tracer.instant(Category::kFault, "osd_fail", track_fault(), 42, "osd", 3.0);
  ASSERT_EQ(tracer.events().size(), 2u);

  const TraceEvent& span = tracer.events()[0];
  EXPECT_STREQ(span.name, "op");
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.ts, 10);
  EXPECT_EQ(span.dur, 5);
  EXPECT_EQ(span.num_args, 0);

  const TraceEvent& inst = tracer.events()[1];
  EXPECT_EQ(inst.phase, 'i');
  EXPECT_EQ(inst.num_args, 1);
  EXPECT_STREQ(inst.arg_key[0], "osd");
  EXPECT_DOUBLE_EQ(inst.arg_val[0], 3.0);
}

TEST(Tracer, CapCountsDropped) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    tracer.instant(Category::kPolicy, "tick", track_policy(), i);
  }
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
}

TEST(Tracer, TrackIdsAreDisjoint) {
  EXPECT_NE(track_osd(0), track_client(0));
  EXPECT_NE(track_client(0), track_mover(0));
  EXPECT_NE(track_mover(0), track_rebuild(0));
  EXPECT_NE(track_rebuild(0), track_policy());
  EXPECT_NE(track_policy(), track_fault());
}

TEST(Tracer, CategoryNamesDistinct) {
  EXPECT_STRNE(category_name(Category::kRequest),
               category_name(Category::kGc));
  EXPECT_STRNE(category_name(Category::kMigration),
               category_name(Category::kFault));
}

TEST(Tracer, ChromeJsonShape) {
  Tracer tracer;
  tracer.name_track(track_osd(0), "osd0");
  tracer.complete(Category::kGc, "gc", track_osd(0), 100, 7, "moves", 12.0);
  tracer.instant(Category::kPolicy, "plan", track_policy(), 200, "signal",
                 0.25, "actions", 3.0);
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string out = os.str();

  // Top-level object with a traceEvents array.
  EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
  // Thread-name metadata precedes the events.
  const auto meta = out.find("\"ph\":\"M\"");
  const auto span = out.find("\"ph\":\"X\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(span, std::string::npos);
  EXPECT_LT(meta, span);
  EXPECT_NE(out.find("\"osd0\""), std::string::npos);
  // Complete event carries ts + dur and its args.
  EXPECT_NE(out.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":7"), std::string::npos);
  EXPECT_NE(out.find("\"moves\":12"), std::string::npos);
  // Instant event and its two args.
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"signal\":0.25"), std::string::npos);
  EXPECT_NE(out.find("\"actions\":3"), std::string::npos);
  // Categories exported by name.
  EXPECT_NE(out.find(category_name(Category::kGc)), std::string::npos);
}

TEST(Tracer, ChromeJsonBalancedAndNoTrailingCommas) {
  Tracer tracer;
  tracer.name_track(track_client(1), "client1");
  for (int i = 0; i < 10; ++i) {
    tracer.complete(Category::kRequest, "op", track_client(1), i * 10, 4);
  }
  std::ostringstream os;
  tracer.write_chrome_json(os);
  const std::string out = os.str();
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : out) {
    if (in_string) {
      if (c == '"' && prev != '\\') in_string = false;
    } else {
      if (c == '"') in_string = true;
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        --depth;
        EXPECT_NE(prev, ',') << "trailing comma before " << c;
      }
      ASSERT_GE(depth, 0);
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev = c;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace edm::telemetry
