// Exact division and remainder of 32-bit values by a divisor fixed at run
// time, with multiplies instead of the hardware divider.
//
// Lemire, Kaser and Kurz (2019), "Faster Remainder by Direct Computation":
// with M = ceil(2^64 / d), n / d is the high 64 bits of M * n, and n % d is
// the high 64 bits of (M * n mod 2^64) * d, for every 32-bit n and d >= 2.
// M needs 65 bits when d == 1, so that divisor takes its own branch.
#pragma once

#include <cassert>
#include <cstdint>

namespace edm::util {

class Divisor {
 public:
  Divisor() = default;  // divides by 1
  explicit Divisor(std::uint32_t d)
      : d_(d), m_(d == 1 ? 0 : UINT64_MAX / d + 1) {
    assert(d != 0);
  }

  std::uint32_t div(std::uint32_t n) const {
    return d_ == 1 ? n : static_cast<std::uint32_t>(mulhi(m_, n));
  }
  std::uint32_t mod(std::uint32_t n) const {
    return d_ == 1 ? 0 : static_cast<std::uint32_t>(mulhi(m_ * n, d_));
  }

 private:
  static std::uint64_t mulhi(std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
  }

  std::uint32_t d_ = 1;
  std::uint64_t m_ = 0;
};

}  // namespace edm::util
