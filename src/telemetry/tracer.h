// Span tracer: scoped begin/end ("complete") and instant events with
// categories, exported as Chrome trace-event JSON (chrome://tracing and
// Perfetto both load it directly).
//
// Events are recorded in completion order -- which, fed from a
// deterministic DES, is itself deterministic -- and kept in a flat vector.
// Names and argument keys must be string literals (or otherwise outlive
// the tracer); nothing is copied on the hot path.
//
// Thread-safety: none -- a Tracer belongs to one Recorder, which belongs
// to one simulation thread (see telemetry.h).  write_chrome_json may run
// on a different thread after the run completes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.h"

namespace edm::telemetry {

/// Event taxonomy; every category is always recorded.
enum class Category : std::uint8_t {
  kRequest = 0,  // client file-operation spans
  kGc = 1,       // flash garbage-collection stalls
  kMigration = 2,  // data-mover object copies
  kRebuild = 3,  // online-rebuild object reconstructions
  kPolicy = 4,   // policy trigger evaluations (plan() calls)
  kFault = 5,    // failures, retries-exhausted, rebuild windows
};
const char* category_name(Category c);

/// Events a run's tracer retains; later ones are counted as dropped
/// instead of growing memory without bound.
inline constexpr std::size_t kMaxTraceEvents = 4u << 20;

/// Track ("thread") ids of the exported trace.  Purely presentational:
/// Perfetto renders one lane per tid.
constexpr std::uint32_t track_osd(std::uint32_t osd) { return 1 + osd; }
constexpr std::uint32_t track_client(std::uint32_t client) {
  return 1000 + client;
}
constexpr std::uint32_t track_mover(std::uint32_t lane) { return 2000 + lane; }
constexpr std::uint32_t track_rebuild(std::uint32_t lane) {
  return 3000 + lane;
}
constexpr std::uint32_t track_policy() { return 4000; }
constexpr std::uint32_t track_fault() { return 4001; }
constexpr std::uint32_t track_tenant(std::uint32_t tenant) {
  return 5000 + tenant;
}

struct TraceEvent {
  const char* name = nullptr;
  Category category = Category::kRequest;
  char phase = 'X';  // 'X' = complete (ts+dur), 'i' = instant
  std::uint32_t track = 0;
  SimTime ts = 0;
  SimDuration dur = 0;
  // Up to two inline arguments; key literals, numeric values.
  std::uint8_t num_args = 0;
  const char* arg_key[2] = {nullptr, nullptr};
  double arg_val[2] = {0.0, 0.0};
};

class Tracer {
 public:
  explicit Tracer(std::size_t max_events = kMaxTraceEvents)
      : max_events_(max_events) {}

  /// Records a completed span [start, start + dur).
  void complete(Category c, const char* name, std::uint32_t track,
                SimTime start, SimDuration dur) {
    push({name, c, 'X', track, start, dur, 0, {}, {}});
  }
  void complete(Category c, const char* name, std::uint32_t track,
                SimTime start, SimDuration dur, const char* k0, double v0) {
    push({name, c, 'X', track, start, dur, 1, {k0, nullptr}, {v0, 0.0}});
  }
  void complete(Category c, const char* name, std::uint32_t track,
                SimTime start, SimDuration dur, const char* k0, double v0,
                const char* k1, double v1) {
    push({name, c, 'X', track, start, dur, 2, {k0, k1}, {v0, v1}});
  }

  /// Records a zero-duration instant event.
  void instant(Category c, const char* name, std::uint32_t track,
               SimTime ts) {
    push({name, c, 'i', track, ts, 0, 0, {}, {}});
  }
  void instant(Category c, const char* name, std::uint32_t track, SimTime ts,
               const char* k0, double v0) {
    push({name, c, 'i', track, ts, 0, 1, {k0, nullptr}, {v0, 0.0}});
  }
  void instant(Category c, const char* name, std::uint32_t track, SimTime ts,
               const char* k0, double v0, const char* k1, double v1) {
    push({name, c, 'i', track, ts, 0, 2, {k0, k1}, {v0, v1}});
  }

  /// Labels a track lane in the exported trace (idempotent per track).
  void name_track(std::uint32_t track, const std::string& name);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON: {"traceEvents":[...]} with thread-name
  /// metadata first.  Timestamps are DES microseconds verbatim.
  void write_chrome_json(std::ostream& os) const;

 private:
  void push(const TraceEvent& e) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  std::size_t max_events_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
  std::uint64_t dropped_ = 0;
};

}  // namespace edm::telemetry
