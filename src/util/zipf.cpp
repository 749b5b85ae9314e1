#include "util/zipf.h"

#include <cassert>
#include <cmath>

namespace edm::util {

namespace {
/// Helper: (exp(x) - 1) / x, stable near zero.
double expm1_over_x(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x / 2.0;  // Taylor expansion.
}

/// Helper: log1p(x)/x, stable near zero.
double log1p_over_x(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x / 2.0;
}
}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  assert(n >= 1);
  assert(s >= 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_num_elements_ = h_integral(static_cast<double>(n) + 0.5);
  scale_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

ZipfSampler ZipfSampler::with_population(std::uint64_t n) const {
  assert(n >= 1);
  ZipfSampler out = *this;
  out.n_ = n;
  // operator() never reads the bound at n == 1.
  if (n > 1) {
    out.h_integral_num_elements_ = h_integral(static_cast<double>(n) + 0.5);
  }
  return out;
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return expm1_over_x((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // Guard against rounding below the domain.
  return std::exp(log1p_over_x(t) * x);
}

std::uint64_t ZipfSampler::operator()(Xoshiro256& rng) const {
  if (n_ == 1) return 0;
  while (true) {
    const double u = h_integral_num_elements_ +
                     rng.next_double() *
                         (h_integral_x1_ - h_integral_num_elements_);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    const double n_d = static_cast<double>(n_);
    if (k > n_d) k = n_d;
    // Accept when u falls under the hat function at k.
    if (k - x <= scale_ || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k) - 1;  // 0-based rank.
    }
  }
}

}  // namespace edm::util
