// Host-speed reference: a fixed memory-latency kernel the benchmark times
// between cells, so that each cell's host time can be scaled to one
// reference host speed.
//
// On a shared host the same replay runs 20-60% slower for seconds to
// minutes at a time while its code stays the same.  Thread CPU time tracks
// wall time, so the thread is not preempted; it is the core that is slower,
// mostly at serving loads from its private caches (neighbours share the
// physical core).  The replay is bound by dependent loads that hit there,
// and so is this kernel: a chase through one random cyclic permutation of
// 512 KiB, built once from a fixed seed.  That is a quarter of a core's L2,
// so how the process's pages happen to map onto L2 sets barely moves it;
// larger rings were caught reading 10-100% slow for whole runs in which
// the replay was not.  It calls no simulator code, so a change to the
// simulator cannot move it; only the host can.  README.md ("Host-speed
// scaling") gives the measurements behind the choice.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
 public:
  /// Probe time (s) of the development host at its usual speed; a cell
  /// measured at exactly this probe time is reported unscaled.
  static constexpr double kReferenceS = 0.017;

  /// Builds the ring and runs the kernel once untimed.
  HostSpeedProbe();

  /// Host seconds of one pass of the kernel (~17 ms on the reference host).
  double measure();

 private:
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

/// Host speed relative to the reference: kReferenceS over the probe time
/// (above 1 = faster than the reference host).
inline double host_speed(double probe_s) {
  return probe_s > 0.0 ? HostSpeedProbe::kReferenceS / probe_s : 0.0;
}

}  // namespace perfbench
