#include "hostspeed.h"

#include <chrono>
#include <cstddef>
#include <utility>

namespace perfbench {

namespace {

// Ring size in entries (4 bytes each) and chase steps per measure().
constexpr std::size_t kEntries = std::size_t{1} << 17;  // 512 KiB
constexpr std::uint32_t kSteps = 1u << 21;

/// One random cycle through all `n` entries (Sattolo's algorithm), so a
/// chase visits every entry before it repeats.
std::vector<std::uint32_t> ring(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) next[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = seed;
  for (std::size_t i = n - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  return next;
}

}  // namespace

HostSpeedProbe::HostSpeedProbe()
    : next_(ring(kEntries, 0x9E3779B97F4A7C15ull)) {
  (void)measure();
}

double HostSpeedProbe::measure() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::uint32_t at = at_;
  for (std::uint32_t i = 0; i < kSteps; ++i) at = next_[at];
  // Kept for the next pass, so the loads cannot be optimised away.
  at_ = at;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
