// Open-loop arrival processes: absolute arrival-time stamps for trace
// records, decoupled from completions.
//
// The closed-loop replay (src/sim default) can never offer more load than
// the cluster absorbs -- each client waits for a completion before issuing
// the next record, so queues stay bounded by construction and saturation
// is invisible.  An ArrivalProcess instead stamps every record with an
// absolute arrival time drawn from a rate process; the simulator injects
// the record at that time whether or not earlier ones have completed.
// Queue growth under overload is the signal, not a bug.
//
// Generation is by unit-rate time change: draw a unit-intensity target
// (Exp(1) for Poisson, exactly 1 for the deterministic fixed-rate process)
// and advance simulated time until the integral of the instantaneous rate
// lambda(t) reaches the target.  Modulators (burst trains, diurnal curves)
// make lambda(t) piecewise-constant over a fixed grid of cells, so the
// integral is evaluated exactly -- no root finding, no discretisation of
// the arrival times themselves.
//
// Determinism contract (docs/internals/workload.md): given (kind, rate,
// seed, modulators), the emitted arrival sequence is a pure function of
// the constructor arguments -- one rng draw per arrival, consumed in
// arrival order, independent of wall clock, thread count, or what the
// simulator does with the arrivals.
//
// Thread-safety: none; confine to one thread like the simulator.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.h"
#include "util/types.h"

namespace edm::workload {

/// How arrival times are produced.  kClosed is the sentinel for "no
/// open-loop subsystem at all" (the digest-pinned default replay).
enum class ArrivalKind : std::uint8_t {
  kClosed = 0,   // completion-driven replay, no arrival stamps
  kPoisson = 1,  // exponential inter-arrivals at the (modulated) rate
  kFixed = 2,    // deterministic 1/rate spacing (modulated)
};

/// Parses "closed" | "poisson" | "fixed"; throws std::invalid_argument.
ArrivalKind arrival_kind_from(const std::string& name);
const char* arrival_kind_name(ArrivalKind kind);

/// On/off burst train: within each period the first `duty` fraction runs
/// at rate/duty (so the long-run mean stays at the configured rate) and
/// the rest is silent.  duty = 1 disables the modulator.
struct BurstConfig {
  double period_s = 0.0;
  double duty = 1.0;
  bool enabled() const { return period_s > 0.0 && duty < 1.0; }
  void validate() const;  // throws std::invalid_argument
};

/// Diurnal rate curve: multiplies the rate by 1 + amplitude *
/// sin(2*pi*t/period).  amplitude = 0 disables the modulator.
struct DiurnalConfig {
  double period_s = 0.0;
  double amplitude = 0.0;
  bool enabled() const { return period_s > 0.0 && amplitude > 0.0; }
  void validate() const;  // throws std::invalid_argument
};

class ArrivalProcess {
 public:
  /// `rate_ops_per_sec` must be > 0 for open kinds; `seed` feeds the
  /// Poisson draw stream (ignored by kFixed, which consumes no draws).
  ArrivalProcess(ArrivalKind kind, double rate_ops_per_sec,
                 std::uint64_t seed, BurstConfig burst = {},
                 DiurnalConfig diurnal = {});

  /// Absolute arrival time (integer microseconds) of the next event.
  /// Strictly non-decreasing.
  SimTime next();

  /// Effective (modulated) rate at simulated time `t_us`, in ops/s.
  double rate_at(double t_us) const;

  ArrivalKind kind() const { return kind_; }

 private:
  ArrivalKind kind_;
  double rate_;  // ops per second (long-run mean)
  BurstConfig burst_;
  DiurnalConfig diurnal_;
  util::Xoshiro256 rng_;
  bool modulated_ = false;
  double cell_us_ = 10'000.0;  // modulation grid; see ctor
  double t_us_ = 0.0;          // current position on the arrival axis
};

}  // namespace edm::workload
