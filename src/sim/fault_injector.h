// Deterministic fault injection for the discrete-event replay.
//
// A FaultPlan holds four ingredients:
//  * scheduled whole-device events -- "OSD i dies at simulated time t",
//    "start rebuilding OSD i at time t" -- consumed by the simulator as
//    first-class events, so device death interleaves with queued requests
//    and in-flight migrations instead of only between replays;
//  * fraction failures -- "OSD i dies once a fraction f of the records
//    has been issued" -- fired by the simulator's progress hook;
//  * scheduled *fail-slow* events -- "OSD i slows down by factor f at time
//    t" / "OSD i recovers at time t" -- modelling gray failures (GC
//    storms, wear-induced retries, firmware stalls) where the device keeps
//    answering, just late.  A slowdown multiplies the device's service
//    time and can add seeded intermittent stalls (bursty latency spikes);
//  * seeded stochastic transient errors -- each completed sub-request on
//    OSD i flips an independent coin with that device's error rate; a hit
//    forces the issuer through retry-with-backoff (see retry_policy.h).
//
// Everything is deterministic: the scheduled events are an explicit list,
// and the stochastic streams come from xoshiro generators seeded from the
// plan, advanced only by the (deterministic) event loop.  The transient
// and stall streams are independent generators so that adding a slowdown
// to a plan never perturbs which requests draw transient errors.  Same
// seed -> identical fault sequence -> bit-identical metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace edm::sim {

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFail = 0,      // device dies: queue drained, I/O degraded
    kRebuild = 1,   // start online reconstruction of a failed device
    kSlowdown = 2,  // device turns fail-slow: service time multiplied
    kRecover = 3,   // fail-slow device returns to nominal service
  };
  SimTime at = 0;
  OsdId osd = 0;
  Kind kind = Kind::kFail;

  // --- kSlowdown parameters (ignored by the other kinds) ---
  /// Service-time multiplier, >= 1.  Applied to the whole sub-request
  /// service time (software overhead + device time) while the slowdown is
  /// in effect.
  double factor = 1.0;
  /// Probability in [0, 1] that one serviced sub-request additionally
  /// stalls for `stall_us` (intermittent firmware-pause mode).  Drawn from
  /// the plan's seeded stall stream; 0 never touches the RNG.
  double stall_rate = 0.0;
  SimDuration stall_us = 0;
};

/// A device failure placed by replay progress: `osd` fails when the
/// simulator issues record ceil(fraction x total records), where the total
/// counts closed-loop records or open-loop arrivals.
struct FractionFailure {
  double fraction = 0.5;
  OsdId osd = 0;
};

struct FaultPlan {
  /// Scheduled events, must be sorted by time (ties keep list order).
  std::vector<FaultEvent> events;

  /// Fraction failures, must be sorted by fraction (ties keep list order).
  std::vector<FractionFailure> fraction_failures;

  /// Per-sub-request transient error probability applied to every OSD
  /// without an explicit per-device rate below.
  double transient_error_rate = 0.0;

  /// Optional per-OSD rates (indexed by OsdId); entries beyond the list
  /// fall back to transient_error_rate.  Values must be in [0, 1].
  std::vector<double> per_osd_error_rates;

  /// Seed of the stochastic streams (transient errors and intermittent
  /// stalls draw from independent generators derived from it).
  std::uint64_t seed = 0x0DDFA117;

  bool empty() const {
    if (!events.empty() || !fraction_failures.empty()) return false;
    if (transient_error_rate > 0.0) return false;
    for (double r : per_osd_error_rates) {
      if (r > 0.0) return false;
    }
    return true;
  }

  /// Fluent builders for tests and benches.
  FaultPlan& fail(OsdId osd, SimTime at) {
    events.push_back({at, osd, FaultEvent::Kind::kFail});
    return *this;
  }
  FaultPlan& rebuild(OsdId osd, SimTime at) {
    events.push_back({at, osd, FaultEvent::Kind::kRebuild});
    return *this;
  }
  /// Fail-slow onset: multiply OSD service time by `factor` (>= 1) and,
  /// with probability `stall_rate` per serviced sub-request, add a
  /// `stall_us` intermittent stall.
  FaultPlan& slow(OsdId osd, SimTime at, double factor,
                  double stall_rate = 0.0, SimDuration stall_us = 0) {
    FaultEvent e{at, osd, FaultEvent::Kind::kSlowdown};
    e.factor = factor;
    e.stall_rate = stall_rate;
    e.stall_us = stall_us;
    events.push_back(e);
    return *this;
  }
  FaultPlan& recover(OsdId osd, SimTime at) {
    events.push_back({at, osd, FaultEvent::Kind::kRecover});
    return *this;
  }
  /// Fails `osd` once `fraction` (in [0, 1]) of the records is issued.
  FaultPlan& fail_at_fraction(OsdId osd, double fraction) {
    fraction_failures.push_back({fraction, osd});
    return *this;
  }

  /// Rejects malformed plans with distinct messages: unsorted event times
  /// or fractions, out-of-range device ids, fractions and error/stall
  /// rates outside [0, 1] (NaN included), slowdown factors below 1.
  void validate(std::uint32_t num_osds) const;
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint32_t num_osds);

  // --- scheduled events, consumed in plan order ---
  bool has_pending() const { return next_ < plan_.events.size(); }
  const FaultEvent& peek() const { return plan_.events[next_]; }
  FaultEvent pop() { return plan_.events[next_++]; }

  // --- seeded transient errors ---
  /// Flips the coin for one completed sub-request on `osd`; advances the
  /// deterministic stream.  Counted in transient_errors() on a hit.
  bool transient_error(OsdId osd);

  // --- fail-slow state (driven by the simulator's kFault handler) ---
  void apply_slowdown(const FaultEvent& e);
  void apply_recover(OsdId osd);
  /// True while at least one device is fail-slow.  Hot paths test this
  /// O(1) flag so healthy runs pay nothing.
  bool any_slow() const { return num_slow_ != 0; }
  bool osd_slow(OsdId osd) const {
    return slow_[osd].factor > 1.0 || slow_[osd].stall_rate > 0.0;
  }
  double slow_factor(OsdId osd) const { return slow_[osd].factor; }
  /// Degrades one sub-request's service time on `osd`: multiplies by the
  /// device's slowdown factor and adds an intermittent stall when the
  /// seeded stall stream fires.  Identity for healthy devices.
  SimDuration degrade(OsdId osd, SimDuration service);

  std::uint64_t transient_errors() const { return transient_errors_; }
  std::uint64_t samples_drawn() const { return samples_; }
  std::uint64_t stalls_injected() const { return stalls_; }

  const FaultPlan& plan() const { return plan_; }

 private:
  struct SlowState {
    double factor = 1.0;
    double stall_rate = 0.0;
    SimDuration stall_us = 0;
  };

  FaultPlan plan_;
  std::vector<double> rates_;  // resolved per-OSD, dense
  std::vector<SlowState> slow_;
  std::size_t next_ = 0;
  util::Xoshiro256 rng_;
  util::Xoshiro256 stall_rng_;  // independent: stalls never shift errors
  std::uint64_t transient_errors_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint32_t num_slow_ = 0;
  bool any_rate_ = false;
};

}  // namespace edm::sim
