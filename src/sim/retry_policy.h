// Capped exponential backoff for transient I/O errors.
//
// Both the closed-loop clients and the data mover re-drive a sub-request
// that hit an injected transient error; the backoff keeps a flapping
// device from being hammered at event-loop speed, and the attempt cap
// turns a persistently erroring request into an *accounted* abandonment
// instead of an infinite retry loop (acceptance rule: nothing is ever
// silently dropped).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "util/types.h"

namespace edm::sim {

/// Delay before the first retry; each further failed attempt doubles it,
/// up to kMaxBackoffUs.
inline constexpr SimDuration kBaseBackoffUs = 500;
inline constexpr double kBackoffMultiplier = 2.0;
inline constexpr SimDuration kMaxBackoffUs = 100 * 1000;
static_assert(kBackoffMultiplier >= 1.0 && kMaxBackoffUs >= kBaseBackoffUs);

struct RetryPolicy {
  /// Total tries per sub-request, the first attempt included.  A request
  /// that fails `max_attempts` times is abandoned (counted, op completes).
  std::uint32_t max_attempts = 4;

  /// Backoff before retry number `attempt` (1-based: the delay after the
  /// attempt-th failure): kBaseBackoffUs * 2^(attempt-1), capped at
  /// kMaxBackoffUs.
  static SimDuration backoff_us(std::uint32_t attempt) {
    double delay = static_cast<double>(kBaseBackoffUs);
    for (std::uint32_t i = 1; i < attempt; ++i) {
      delay *= kBackoffMultiplier;
      if (delay >= static_cast<double>(kMaxBackoffUs)) return kMaxBackoffUs;
    }
    return static_cast<SimDuration>(delay);
  }

  /// True when a request that has failed `attempts` times is out of tries.
  bool exhausted(std::uint32_t attempts) const {
    return attempts >= max_attempts;
  }

  void validate() const {
    if (max_attempts == 0) {
      throw std::invalid_argument("RetryPolicy: max_attempts must be > 0");
    }
  }
};

}  // namespace edm::sim
