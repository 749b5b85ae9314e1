#include "util/divisor.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/rng.h"

namespace edm::util {
namespace {

constexpr std::uint32_t kMax = UINT32_MAX;

/// `d`, built from `v`, must equal the hardware / and % for numerator `n`.
void expect_exact(const Divisor& d, std::uint32_t v, std::uint32_t n) {
  ASSERT_EQ(d.div(n), n / v) << n << " / " << v;
  ASSERT_EQ(d.mod(n), n % v) << n << " % " << v;
}

/// The numerators where a rounding error in M would show first, plus a
/// seeded random sample of the whole 32-bit range.
void expect_exact_around(std::uint32_t v, Xoshiro256& rng, int samples) {
  const Divisor d(v);
  for (const std::uint32_t n : {0u, 1u, v - 1, v, v + 1, kMax - 1, kMax}) {
    expect_exact(d, v, n);
  }
  for (int i = 0; i < samples; ++i) {
    expect_exact(d, v,
                 static_cast<std::uint32_t>(rng.next_below(1ull << 32)));
  }
}

TEST(Divisor, DefaultDividesByOne) {
  const Divisor d;
  EXPECT_EQ(d.div(kMax), kMax);
  EXPECT_EQ(d.mod(kMax), 0u);
}

TEST(Divisor, MatchesHardwareForEverySmallDivisor) {
  Xoshiro256 rng(4096);
  for (std::uint32_t v = 1; v <= 4096; ++v) {
    expect_exact_around(v, rng, 64);
  }
}

TEST(Divisor, MatchesHardwareForRandomWideDivisors) {
  Xoshiro256 rng(0xD1715);
  for (const std::uint32_t v : {kMax, kMax - 1, 1u << 31, (1u << 31) + 1,
                                (1u << 31) - 1, 65536u, 65537u}) {
    expect_exact_around(v, rng, 256);
  }
  for (int i = 0; i < 20000; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_in(1, kMax));
    expect_exact_around(v, rng, 8);
  }
}

}  // namespace
}  // namespace edm::util
