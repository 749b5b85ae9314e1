// Run-scoped telemetry: span tracing, a metrics registry, and DES-clock
// time-series sampling.
//
// Design constraints (docs/INTERNALS.md §7):
//  * Determinism -- every timestamp comes from the simulated clock, never
//    the wall clock, so the same seed + config yields bit-identical event
//    and sample streams.
//  * Near-zero cost when off -- a disabled Recorder hands out null
//    component pointers; instrumented hot paths guard on one pointer test
//    and touch nothing else.
//  * Confinement, not locking -- one Recorder belongs to one simulation
//    (one thread).  Parallel grids give every cell its own Recorder;
//    nothing here is shared across pool workers.
#pragma once

#include <cstdint>
#include <memory>

#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "telemetry/tracer.h"
#include "util/types.h"

namespace edm::telemetry {

/// Run-level switchboard: what to record and how often to sample.
struct TelemetryConfig {
  /// Span/instant event collection (Chrome trace-event export), up to
  /// kMaxTraceEvents events (tracer.h).
  bool trace_enabled = false;

  /// Named counters / gauges / latency histograms.
  bool metrics_enabled = false;

  /// Time-series sampling interval on the DES clock (0 = sampler off).
  SimDuration sample_interval_us = 0;

  bool any() const {
    return trace_enabled || metrics_enabled || sample_interval_us > 0;
  }
};

/// One run's telemetry state.  Owns the tracer, metrics registry and
/// sampler (each only when its half of the config enables it) and carries
/// the DES clock for instrumentation sites that have no `now` of their own
/// (the flash layer, cluster bookkeeping, policies).
///
/// Thread-safety: none by design -- a Recorder is confined to the one
/// thread driving its simulation.  The sweep runner (src/runner) gives
/// every run its own Recorder; results may be *read* from another thread
/// once the run has finished (happens-before via the pool's future).
class Recorder {
 public:
  explicit Recorder(TelemetryConfig config);

  const TelemetryConfig& config() const { return cfg_; }

  /// DES clock, advanced by the simulator at every event dispatch.
  SimTime now() const { return now_; }
  void set_now(SimTime t) { now_ = t; }

  /// Component accessors; null when the config disables the component.
  Tracer* tracer() { return tracer_.get(); }
  const Tracer* tracer() const { return tracer_.get(); }
  Registry* metrics() { return metrics_.get(); }
  const Registry* metrics() const { return metrics_.get(); }
  Sampler* sampler() { return sampler_.get(); }
  const Sampler* sampler() const { return sampler_.get(); }

 private:
  TelemetryConfig cfg_;
  SimTime now_ = 0;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Registry> metrics_;
  std::unique_ptr<Sampler> sampler_;
};

}  // namespace edm::telemetry
