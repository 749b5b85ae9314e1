// Behaviour-neutral timing decorator around a MigrationPolicy.
//
// The Simulator reaches the policy layer only through the pointer its
// caller supplies, so wrapping that pointer is how the traced run times
// plan() from outside the program.  MigrationPolicy::set_model and
// set_recorder are non-virtual: the Simulator calls them on this wrapper,
// which therefore hands the refit wear model and the telemetry recorder on
// to the wrapped policy before every plan().  Without that, adaptive-sigma
// refits and the policy's telemetry would silently disappear.
#pragma once

#include <chrono>
#include <vector>

#include "core/policy.h"
#include "spans.h"
#include "telemetry/telemetry.h"

namespace perfbench {

class TimedPolicy final : public edm::core::MigrationPolicy {
 public:
  /// `inner` must outlive this wrapper.  With a span log, every plan()
  /// call is also recorded as a "core.plan" span under `parent_span`.
  explicit TimedPolicy(edm::core::MigrationPolicy& inner,
                       SpanLog* spans = nullptr,
                       int parent_span = SpanLog::kRoot)
      : MigrationPolicy(inner.config()),
        inner_(inner),
        spans_(spans),
        parent_span_(parent_span) {}

  const char* name() const override { return inner_.name(); }
  bool blocks_foreground() const override {
    return inner_.blocks_foreground();
  }

  edm::core::MigrationPlan plan(const edm::core::ClusterView& view,
                                bool force) override {
    inner_.set_model(cfg_.model);
    inner_.set_recorder(recorder_);
    const int span = spans_ ? spans_->open("core.plan", parent_span_) : 0;
    const auto start = std::chrono::steady_clock::now();
    edm::core::MigrationPlan plan = inner_.plan(view, force);
    const auto end = std::chrono::steady_clock::now();
    if (spans_) spans_->close(span);
    call_ms_.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    call_sim_us_.push_back(recorder_ ? recorder_->now() : edm::SimTime{0});
    return plan;
  }

  /// Spans of later plan() calls go under `id` (the replay's span, which
  /// opens only after the Simulator holding this wrapper is built).
  void set_parent_span(int id) { parent_span_ = id; }

  /// Host milliseconds of each plan() call, in call order.
  const std::vector<double>& call_ms() const { return call_ms_; }

  /// Simulated time of each plan() call, read from the run's telemetry
  /// recorder (0 when the run has none).
  const std::vector<edm::SimTime>& call_sim_us() const { return call_sim_us_; }

 private:
  edm::core::MigrationPolicy& inner_;
  SpanLog* spans_;
  int parent_span_;
  std::vector<double> call_ms_;
  std::vector<edm::SimTime> call_sim_us_;
};

}  // namespace perfbench
