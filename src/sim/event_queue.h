// Deterministic discrete-event queue: a two-tier calendar queue.
//
// Ordering contract: pop() returns events in ascending (time, seq) order,
// where seq is the push order.  Ties on time break by insertion sequence,
// which makes every simulation run bit-reproducible regardless of platform,
// optimisation level, or the container layout below -- ANY correct
// implementation of this contract replays identically.
//
// Layout (docs/internals/sim.md has the full design note):
//
//   * current bucket  -- a small binary heap holding every pending event
//                        whose time falls at or before the cursor bucket;
//                        pop() and peek() only ever touch this heap.
//   * near-future ring -- kNumBuckets time buckets of 2^kBucketShift us
//                        each (a ~1 s horizon); push into the ring is O(1)
//                        append, unsorted.  The cursor advances bucket by
//                        bucket, heapifying one bucket at a time.
//   * far-future heap -- fallback binary heap for events beyond the ring
//                        horizon (epoch ticks, fault schedules), migrated
//                        into the current bucket as the cursor reaches them.
//
// The common case in a replay -- an OSD completion a few hundred
// microseconds out -- is an O(1) ring append plus an O(log k) pop from a
// bucket of k events (k is single digits at the paper's densities), versus
// O(log n) against the whole pending set for a single global heap.
//
// Thread-safety: none -- an EventQueue is owned and driven by exactly one
// Simulator on one thread.  The runner's job-level parallelism gives every
// concurrent run its own queue.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/types.h"

namespace edm::sim {

enum class EventKind : std::uint8_t {
  kOsdComplete = 0,    // payload = device-slot index of the served request
  kEpochTick = 1,      // temperature epoch boundary / wear-monitor check
  kMoverResume = 2,    // payload = lane id | generation<<32 (pacing/backoff)
  kFault = 3,          // scheduled FaultPlan event is due
  kRetryResume = 4,    // payload = retry-slot index (transient-error backoff)
  kRebuildResume = 5,  // payload = rebuild lane id | generation<<32
  kTelemetrySample = 6,  // time-series sampler tick (payload unused)
  kHealthCheck = 7,      // periodic health-monitor evaluation (payload unused)
  kHedgeDeadline = 8,    // payload = hedge slot | generation<<32
  kArrival = 9,          // open-loop arrival is due (payload unused)
};

struct Event {
  SimTime time = 0;
  // (push sequence << 8) | kind, packed into one word so an Event is 24
  // bytes instead of 32 -- the ring buckets and heaps move measurably
  // less memory per push/pop.  Sequence numbers are unique, so ordering
  // by seq_kind is ordering by seq (the kind bits can never decide a
  // comparison), and 56 bits of sequence outlast any feasible run.
  std::uint64_t seq_kind = 0;
  std::uint64_t payload = 0;

  Event() = default;
  Event(SimTime t, std::uint64_t seq, EventKind k, std::uint64_t p)
      : time(t),
        seq_kind((seq << 8) | static_cast<std::uint64_t>(k)),
        payload(p) {}

  EventKind kind() const { return static_cast<EventKind>(seq_kind & 0xff); }
  std::uint64_t seq() const { return seq_kind >> 8; }
};

class EventQueue {
 public:
  void push(SimTime time, EventKind kind, std::uint64_t payload) {
    const Event e{time, next_seq_++, kind, payload};
    const std::uint64_t bucket = bucket_of(time);
    ++size_;
    if (bucket <= cursor_) {
      // Due now (or, defensively, in the past): joins the heap pop() reads.
      cur_.push_back(e);
      std::push_heap(cur_.begin(), cur_.end(), Later{});
    } else if (bucket < cursor_ + kNumBuckets) {
      const std::uint64_t slot = bucket & kBucketMask;
      ring_[slot].push_back(e);  // O(1), unsorted
      occupied_[slot >> 6] |= 1ull << (slot & 63);
      ++ring_count_;
    } else {
      far_.push_back(e);
      std::push_heap(far_.begin(), far_.end(), Later{});
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  Event pop() {
    if (cur_.empty()) advance();
    std::pop_heap(cur_.begin(), cur_.end(), Later{});
    const Event e = cur_.back();
    cur_.pop_back();
    --size_;
    return e;
  }

  /// May advance the internal cursor to locate the front event, so non-const
  /// like pop(); the queue's contents and pop order are unaffected.
  const Event& peek() {
    if (cur_.empty()) advance();
    return cur_.front();
  }

 private:
  // 4096 buckets x 256 us = a ~1 s near-future horizon.  The width is
  // tuned so a typical OSD completion (a few hundred microseconds of
  // service) lands in a *later* bucket -- an O(1) unsorted append -- and
  // cur_ heapifies only a handful of events at a time; epoch ticks (60 s)
  // and fault schedules overflow to the far heap by design.
  static constexpr std::uint32_t kBucketShift = 8;  // 256 us wide
  static constexpr std::uint64_t kNumBuckets = 4096;
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
  static constexpr std::uint64_t kNoBucket =
      std::numeric_limits<std::uint64_t>::max();

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq_kind > b.seq_kind;  // == seq order; see Event::seq_kind
    }
  };

  static std::uint64_t bucket_of(SimTime time) {
    return static_cast<std::uint64_t>(time) >> kBucketShift;
  }

  /// First non-empty ring slot strictly after cursor_, as an absolute
  /// bucket number (kNoBucket if the ring is empty).  Scans the occupancy
  /// bitmap -- 512 bytes worst case -- rather than 4096 vector headers.
  std::uint64_t next_ring_bucket() const {
    const std::uint64_t start = (cursor_ + 1) & kBucketMask;
    std::uint64_t word_idx = start >> 6;
    std::uint64_t word = occupied_[word_idx] & (~0ull << (start & 63));
    for (std::uint64_t scanned = 0; scanned <= kNumBuckets / 64; ++scanned) {
      if (word != 0) {
        const std::uint64_t slot =
            (word_idx << 6) + static_cast<std::uint64_t>(__builtin_ctzll(word));
        // Map the slot back to its absolute bucket: the unique value in
        // (cursor_, cursor_ + kNumBuckets) congruent to it.
        return cursor_ + 1 + ((slot - start) & kBucketMask);
      }
      word_idx = (word_idx + 1) & ((kNumBuckets / 64) - 1);
      word = occupied_[word_idx];
    }
    return kNoBucket;
  }

  /// Moves the cursor to the earliest pending bucket and heapifies it into
  /// cur_.  Pre: size_ > 0 and cur_.empty(), so the ring or far heap holds
  /// at least one event.
  void advance() {
    const std::uint64_t far_bucket =
        far_.empty() ? kNoBucket : bucket_of(far_.front().time);
    std::uint64_t next = far_bucket;
    if (ring_count_ > 0) {
      next = std::min(next, next_ring_bucket());
    }
    cursor_ = next;

    // Ring slot first.  When the cursor jumped to the far heap's bucket the
    // slot can still hold same-bucket events pushed while the window covered
    // it; the seq tie-break below keeps their order right either way.
    const std::uint64_t slot_idx = cursor_ & kBucketMask;
    std::vector<Event>& slot = ring_[slot_idx];
    if (!slot.empty()) {
      ring_count_ -= slot.size();
      occupied_[slot_idx >> 6] &= ~(1ull << (slot_idx & 63));
      cur_.swap(slot);  // recycles cur_'s capacity into the emptied slot
      std::make_heap(cur_.begin(), cur_.end(), Later{});
    }
    while (!far_.empty() && bucket_of(far_.front().time) == cursor_) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      cur_.push_back(far_.back());
      far_.pop_back();
      std::push_heap(cur_.begin(), cur_.end(), Later{});
    }
  }

  std::vector<Event> cur_;   // binary heap: every event due in <= cursor_
  std::array<std::vector<Event>, kNumBuckets> ring_;  // unsorted buckets
  std::array<std::uint64_t, kNumBuckets / 64> occupied_{};  // slot bitmap
  std::vector<Event> far_;   // binary heap: events beyond the ring horizon
  std::uint64_t cursor_ = 0;     // bucket number cur_ is draining
  std::size_t ring_count_ = 0;   // events across all ring slots
  std::size_t size_ = 0;         // total pending events, all tiers
  std::uint64_t next_seq_ = 0;
};

}  // namespace edm::sim
