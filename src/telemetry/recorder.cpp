#include "telemetry/telemetry.h"

namespace edm::telemetry {

Recorder::Recorder(TelemetryConfig config) : cfg_(config) {
  cfg_.validate();
  if (cfg_.trace_enabled) {
    tracer_ = std::make_unique<Tracer>(cfg_.trace_categories,
                                       cfg_.max_trace_events);
  }
  if (cfg_.metrics_enabled) {
    metrics_ = std::make_unique<Registry>();
  }
  if (cfg_.sample_interval_us > 0) {
    sampler_ = std::make_unique<Sampler>(cfg_.sample_interval_us);
  }
}

}  // namespace edm::telemetry
