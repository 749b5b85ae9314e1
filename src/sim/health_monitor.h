// Online OSD health detection for the fail-slow fault model.
//
// The monitor scores every OSD from a deterministic EWMA of the
// sub-request *service* latencies the simulator observes (dispatch ->
// completion, excluding queue wait) and flags devices whose smoothed
// latency is an outlier against the fleet median.  Service time is the
// signal that separates sick from busy: a fail-slow device inflates every
// I/O it performs, while a healthy device that merely holds hot data --
// the load imbalance this whole system exists to fix -- only accrues
// queue wait.  The monitor has no oracle access to the injected
// FaultPlan: a slow device is only ever discovered the way a real MDS
// would discover it, by watching its I/O get late.
//
// Scoring contract (docs/internals/fault.md):
//  * observe(osd, service_us) feeds one completed sub-request's service
//    time into that device's EWMA (util::Ewma,
//    alpha = HealthConfig::latency_alpha).
//  * evaluate(now) -- called on the simulator's periodic kHealthCheck
//    event -- compares each device with at least min_samples observations
//    against the leave-one-out median of its *peers* (every other
//    scoreable device).  Excluding the candidate from its own baseline
//    matters at both extremes: in a 2-device fleet the outlier would
//    otherwise BE the median and could never be flagged, and in a large
//    fleet a grossly sick device cannot drag the baseline toward itself.
//      - unflagged device with ewma > flag_ratio  * peer median on
//        flag_streak consecutive checks                          -> flagged
//      - flagged   device with ewma < clear_ratio * peer median  -> cleared
//    The hysteresis gap (clear_ratio < flag_ratio) stops a device sitting
//    at the threshold from flapping.
//  * With fewer than two scoreable devices there are no peers to compare
//    against and evaluate() does nothing -- the monitor never flags on one
//    sample stream alone.
//
// Everything derives from DES-clock observations, so health state is a
// pure function of the (deterministic) event sequence: same seed ->
// identical flag/clear transitions -> bit-identical reports.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ewma.h"
#include "util/types.h"

namespace edm::sim {

struct HealthConfig {
  /// Master switch: score OSD latencies online and emit health metrics.
  bool enabled = false;

  /// Act on flags: hedged reads off flagged devices + quarantine-and-drain
  /// migration.  Detection-only runs (mitigate = false) still flag and
  /// report, useful for measuring detector quality against an injection.
  bool mitigate = false;

  /// EWMA smoothing for observed sub-request service latency.  0.05 ~ the
  /// last ~20 requests dominate: fast enough to catch an onset within tens
  /// of requests, smooth enough not to flag one GC stall.
  double latency_alpha = 0.05;

  /// Flag when a device's EWMA exceeds flag_ratio x the median of its
  /// peers; clear when it falls back under clear_ratio x that median
  /// (hysteresis).
  double flag_ratio = 3.0;
  double clear_ratio = 1.5;

  /// Minimum observations before a device participates in scoring at all
  /// -- both for the median and as a flag candidate.
  std::uint64_t min_samples = 32;

  /// Consecutive over-threshold evaluations before a device is flagged
  /// (debounce).  A persistent fail-slow device trips every check; a
  /// transient spike -- clients briefly queued behind a migration chunk --
  /// decays before the streak completes.  1 = flag on first excursion.
  std::uint32_t flag_streak = 2;

  /// Period of the simulator's kHealthCheck event.
  SimDuration check_interval_us = 2 * 1000 * 1000;

  /// Mitigation: a client read sitting on a *flagged* OSD this long past
  /// its enqueue fires a hedged RAID-5 reconstruction read (first
  /// completion wins).
  SimDuration hedge_deadline_us = 20 * 1000;

  void validate() const;
};

class HealthMonitor {
 public:
  HealthMonitor(const HealthConfig& cfg, std::uint32_t num_osds);

  /// One completed sub-request on `osd` took `service_us` from dispatch to
  /// completion (service only -- queue wait excluded, see file comment).
  void observe(OsdId osd, SimDuration service_us) {
    ewma_[osd].add(static_cast<double>(service_us));
  }

  struct Transition {
    OsdId osd = 0;
    bool flagged = false;  // false = cleared
  };

  /// Re-scores the fleet; appends flag/clear transitions in ascending OSD
  /// order (deterministic).  `now` timestamps first_flagged_at.
  void evaluate(SimTime now, std::vector<Transition>& out);

  bool flagged(OsdId osd) const { return flagged_[osd] != 0; }
  bool any_flagged() const { return num_flagged_ != 0; }
  std::uint32_t flagged_count() const { return num_flagged_; }

  /// Smoothed latency of one device (0 until seeded).
  double latency_ewma(OsdId osd) const {
    return ewma_[osd].seeded() ? ewma_[osd].value() : 0.0;
  }
  /// Whole-fleet median of the last evaluate() (0 before the first one).
  /// Telemetry only -- flag decisions use per-device peer medians.
  double fleet_median() const { return last_median_; }

  std::uint64_t checks() const { return checks_; }
  std::uint64_t flag_events() const { return flag_events_; }
  std::uint64_t clear_events() const { return clear_events_; }
  SimTime first_flagged_at() const { return first_flagged_at_; }
  /// Every OSD flagged at least once, ascending (for reports).
  std::vector<std::uint32_t> ever_flagged() const;

  const HealthConfig& config() const { return cfg_; }

 private:
  HealthConfig cfg_;
  std::vector<util::Ewma> ewma_;
  std::vector<std::uint8_t> flagged_;
  std::vector<std::uint8_t> ever_flagged_;
  std::vector<std::uint32_t> streak_;  // consecutive over-threshold checks
  std::vector<OsdId> scoreable_scratch_;
  std::vector<double> median_scratch_;
  std::uint32_t num_flagged_ = 0;
  double last_median_ = 0.0;
  std::uint64_t checks_ = 0;
  std::uint64_t flag_events_ = 0;
  std::uint64_t clear_events_ = 0;
  SimTime first_flagged_at_ = 0;
};

}  // namespace edm::sim
