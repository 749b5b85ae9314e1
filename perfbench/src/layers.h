// The traced run's layer-driven pass: per-call host cost of each layer the
// replay reaches directly, measured from outside the program.
//
// A second cluster is built exactly as the replay's was.  The workload's
// own records, in trace order, go through the trace or arrival source,
// Cluster::map_request, AccessTracker::on_access and the flash entry
// points the Simulator uses (Cluster::fast_extent_io_at, Osd::read_at /
// write_at).  An EventQueue then runs a hold model sized from the replay:
// its mean in-flight depth and mean service time.  Every layer is timed in
// batches of calls, never per call: one steady_clock read costs more than
// a tracker update.
#pragma once

#include <cstdint>

#include "sim/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct LayerCosts {
  // --- work counts (deterministic for a workload and seed) ---
  std::uint64_t records = 0;        // records pulled through the source
  std::uint64_t osd_ios = 0;        // OsdIo produced by map_request
  std::uint64_t pages_read = 0;     // flash host pages read (Ssd::stats)
  std::uint64_t pages_written = 0;  // flash host pages written
  std::uint64_t eventq_pairs = 0;   // EventQueue pop + push pairs

  // --- host seconds, summed over the timed batches ---
  double source_s = 0.0;   // TraceCursor::next / OpenLoopSource::next; 0
                           // for a materialised trace, already in memory
  double map_s = 0.0;      // Cluster::map_request
  double tracker_s = 0.0;  // AccessTracker::on_access
  double read_s = 0.0;     // flash reads
  double write_s = 0.0;    // flash writes (GC included)
  double eventq_s = 0.0;   // EventQueue::pop + push
};

/// Runs the pass for `workload`; `replay` is the traced replay's result,
/// which sizes the event-queue hold model.  Batches are recorded as spans
/// under a "layers" span when `spans` is set.
LayerCosts run_layer_pass(const Workload& workload,
                          const edm::sim::RunResult& replay, SpanLog* spans);

}  // namespace perfbench
