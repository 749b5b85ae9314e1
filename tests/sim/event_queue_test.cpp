#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "util/rng.h"

namespace edm::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30, EventKind::kOsdComplete, 3);
  q.push(10, EventKind::kOsdComplete, 1);
  q.push(20, EventKind::kEpochTick, 2);
  EXPECT_EQ(q.pop().payload, 1u);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.push(5, EventKind::kOsdComplete, i);
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(q.pop().payload, i);
  }
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  q.push(10, EventKind::kOsdComplete, 1);
  q.push(5, EventKind::kOsdComplete, 0);
  EXPECT_EQ(q.pop().payload, 0u);
  q.push(7, EventKind::kOsdComplete, 2);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 1u);
}

TEST(EventQueue, CarriesKindAndTime) {
  EventQueue q;
  q.push(123, EventKind::kEpochTick, 7);
  const Event e = q.pop();
  EXPECT_EQ(e.time, 123u);
  EXPECT_EQ(e.kind(), EventKind::kEpochTick);
  EXPECT_EQ(e.payload, 7u);
}

TEST(EventQueue, DrainsAcrossRingWrapAndFarTier) {
  // Times from microseconds to seconds ahead, pushed out of order, with a
  // push between pops that lands among the events already pending.
  EventQueue q;
  const SimTime span = 4096 * 1024;  // ~4 s in microseconds
  q.push(3 * span, EventKind::kEpochTick, 5);
  q.push(10, EventKind::kOsdComplete, 0);
  q.push(span - 1, EventKind::kOsdComplete, 2);
  q.push(span + 50, EventKind::kOsdComplete, 3);
  q.push(2048, EventKind::kOsdComplete, 1);
  EXPECT_EQ(q.pop().payload, 0u);
  EXPECT_EQ(q.pop().payload, 1u);
  q.push(span + 4096, EventKind::kOsdComplete, 4);
  EXPECT_EQ(q.pop().payload, 2u);
  EXPECT_EQ(q.pop().payload, 3u);
  EXPECT_EQ(q.pop().payload, 4u);
  EXPECT_EQ(q.pop().payload, 5u);
  EXPECT_TRUE(q.empty());
}

// Differential test against the specification: std::priority_queue over
// (time, seq).  One million mixed push/pop operations with a replay-like
// time distribution -- bursts of tied timestamps (FIFO order asserted via
// seq), completions a few hundred microseconds out, seconds-long backoffs
// and far-future epochs.
TEST(EventQueue, MatchesReferenceHeapOnRandomWorkload) {
  struct RefLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq() > b.seq();
    }
  };
  std::priority_queue<Event, std::vector<Event>, RefLater> ref;

  EventQueue q;
  util::Xoshiro256 rng(0xED4'BA5EBA11);
  std::uint64_t ref_seq = 0;   // mirrors the queue's internal numbering
  SimTime now = 0;             // sim clock: max time popped so far
  SimTime last_tied = 0;       // reused to generate exact time collisions
  std::uint64_t popped = 0;
  Event last{};

  for (int op = 0; op < 1'000'000; ++op) {
    const bool do_push = ref.empty() || rng.next_double() < 0.55;
    if (do_push) {
      SimTime t;
      const double shape = rng.next_double();
      if (shape < 0.30) {
        t = last_tied;  // exact tie: FIFO on seq must decide
      } else if (shape < 0.80) {
        t = now + rng.next_below(2'000);  // typical completion distance
      } else if (shape < 0.95) {
        t = now + rng.next_below(4096 * 1024 * 2);  // seconds-long backoffs
      } else {
        t = now + 60'000'000 + rng.next_below(600'000'000);  // epoch-like
      }
      if (t < now) t = now;
      last_tied = t;
      const auto payload = static_cast<std::uint64_t>(op);
      q.push(t, EventKind::kOsdComplete, payload);
      ref.push(Event{t, ref_seq++, EventKind::kOsdComplete, payload});
      continue;
    }
    const Event expected = ref.top();
    ref.pop();
    const Event got = q.pop();
    ASSERT_EQ(got.time, expected.time) << "op " << op;
    ASSERT_EQ(got.seq(), expected.seq()) << "FIFO-on-tie violated at op " << op;
    ASSERT_EQ(got.payload, expected.payload) << "op " << op;
    if (popped > 0) {
      ASSERT_TRUE(got.time > last.time ||
                  (got.time == last.time && got.seq() > last.seq()))
          << "non-monotone pop at op " << op;
    }
    last = got;
    ++popped;
    now = got.time;
  }
  while (!ref.empty()) {
    const Event expected = ref.top();
    ref.pop();
    const Event got = q.pop();
    ASSERT_EQ(got.seq(), expected.seq());
    ASSERT_EQ(got.time, expected.time);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace edm::sim
