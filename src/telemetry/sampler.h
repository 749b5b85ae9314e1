// Time-series sampler: snapshots cluster state at a fixed interval on the
// DES clock (never the wall clock) and exports the series as CSV or JSON.
//
// One row per sample tick; each row carries the cluster-wide in-flight
// migration byte count plus per-OSD columns (queue depth, utilization,
// EWMA load, cumulative erases).  Rows are appended by the simulator's
// kTelemetrySample event handler, so the stream is deterministic for a
// fixed seed + config.
//
// Thread-safety: none -- one Sampler per Recorder per simulation thread
// (see telemetry.h); the CSV/JSON writers may run on another thread once
// the run has finished.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/types.h"

namespace edm::telemetry {

struct OsdSample {
  std::uint32_t queue_depth = 0;    // waiting + in service
  double utilization = 0.0;         // store-level (allocated / logical)
  double load_ewma_us = 0.0;        // EWMA request latency ("temperature")
  std::uint64_t erases = 0;         // cumulative block erases
};

struct SampleRow {
  SimTime t = 0;
  std::uint64_t inflight_migration_bytes = 0;  // mover lanes, remaining
  std::vector<OsdSample> osds;
};

class Sampler {
 public:
  explicit Sampler(SimDuration interval_us);

  SimDuration interval_us() const { return interval_us_; }

  /// Appends a row; the caller fills it in place.
  SampleRow& add_row(SimTime t);

  const std::vector<SampleRow>& rows() const { return rows_; }

  /// CSV: one header line, then one line per sample tick.  Per-OSD columns
  /// are suffixed with the device index (qd0, util0, ...).
  void write_csv(std::ostream& os) const;

  /// JSON: {"schema":"edm-timeseries/1","interval_us":...,"samples":[...]}.
  void write_json(std::ostream& os) const;

 private:
  SimDuration interval_us_;
  std::vector<SampleRow> rows_;
};

}  // namespace edm::telemetry
