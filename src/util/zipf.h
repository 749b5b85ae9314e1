// Zipfian sampling over a finite population.
//
// The synthetic workloads need heavy-tailed file popularity ("a large body of
// the writes might go to a small part of the data set" -- paper SII).  We use
// rejection-inversion (Hörmann & Derflinger 1996), the same algorithm YCSB
// popularised: O(1) per sample, no O(N) table, exact Zipf(s) marginals.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace edm::util {

/// Samples k in [0, n) with P(k) proportional to 1/(k+1)^s.
///
/// s = 0 degenerates to uniform; s around 0.8-1.2 matches the skew reported
/// for NFS-style workloads.  Deterministic given the generator stream.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t operator()(Xoshiro256& rng) const;

  /// The sampler for population `n` under the same exponent: draw for draw
  /// (and RNG state for RNG state) identical to ZipfSampler(n, exponent()).
  /// The exponent's constants are copied, so only the population bound is
  /// recomputed -- one h_integral(), none at all for n == 1.
  ZipfSampler with_population(std::uint64_t n) const;

  std::uint64_t population() const { return n_; }
  double exponent() const { return s_; }

 private:
  double h(double x) const;
  double h_integral(double x) const;
  double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double s_;
  double h_integral_x1_;
  double h_integral_num_elements_;
  double scale_;
};

}  // namespace edm::util
