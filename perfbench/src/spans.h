// In-memory span log for the traced run: one span per timed call into a
// layer (name, host-clock start/end relative to the log's creation, parent
// span).  Nothing is written until write_json(), which the benchmark calls
// once at exit, so recording never touches the disk mid-run.
#pragma once

#include <chrono>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kRoot = -1;

  /// `run_id` names the workload run every span of this log belongs to.
  explicit SpanLog(std::string run_id)
      : run_id_(std::move(run_id)), origin_(Clock::now()) {}

  /// Starts a span now; returns its id (the parent of spans opened inside).
  int open(std::string name, int parent = kRoot) {
    const double now = since_origin(Clock::now());
    spans_.push_back({std::move(name), now, now, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends span `id` now; returns its duration in seconds.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = since_origin(Clock::now());
    return s.end_s - s.start_s;
  }

  /// Writes {"run": ..., "spans": [{"id", "name", "start_s", "end_s",
  /// "parent"}, ...]}.  Host-clock values only: never part of a
  /// deterministic output.
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };

  double since_origin(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Runs `fn` and returns its host seconds; with a span log, it is also
/// recorded as span `name` under `parent`.
template <typename Fn>
double timed(SpanLog* spans, const char* name, int parent, Fn&& fn) {
  const int span = spans ? spans->open(name, parent) : 0;
  const auto start = SpanLog::Clock::now();
  fn();
  const auto end = SpanLog::Clock::now();
  if (spans) spans->close(span);
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace perfbench
