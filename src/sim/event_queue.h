// Deterministic discrete-event queue: one binary heap.
//
// Ordering contract: pop() returns events in ascending (time, seq) order,
// where seq is the push order.  Ties on time break by insertion sequence,
// which makes every simulation run bit-reproducible regardless of platform,
// optimisation level, or the container layout below -- ANY correct
// implementation of this contract replays identically.
//
// A replay keeps few events pending at once: one completion per busy
// device slot (16 on a flat 16-OSD cluster, 128 at nvme queue depth 8),
// plus a handful of timers, backoffs and hedge deadlines.  A heap of that
// size stays in L1 and is at most eight levels deep, so push and pop are a
// few sift steps over hot memory (docs/internals/sim.md).
//
// Thread-safety: none -- an EventQueue is owned and driven by exactly one
// Simulator on one thread.  The runner's job-level parallelism gives every
// concurrent run its own queue.
#pragma once

#include <algorithm>
#include <cstdint>
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
  // bytes instead of 32 and a heap sift moves less memory.  Sequence
  // numbers are unique, so ordering by seq_kind is ordering by seq (the
  // kind bits can never decide a comparison), and 56 bits of sequence
  // outlast any feasible run.
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
    heap_.emplace_back(time, next_seq_++, kind, payload);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq_kind > b.seq_kind;  // == seq order; see Event::seq_kind
    }
  };

  std::vector<Event> heap_;  // std::*_heap order under Later: earliest first
  std::uint64_t next_seq_ = 0;
};

}  // namespace edm::sim
