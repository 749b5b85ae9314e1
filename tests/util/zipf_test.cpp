#include "util/zipf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace edm::util {
namespace {

std::vector<double> empirical_pmf(const ZipfSampler& z, int samples,
                                  std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  std::vector<double> counts(z.population(), 0.0);
  for (int i = 0; i < samples; ++i) counts[z(rng)] += 1.0;
  for (auto& c : counts) c /= samples;
  return counts;
}

TEST(ZipfSampler, AlwaysInRange) {
  const ZipfSampler z(100, 1.2);
  Xoshiro256 rng(3);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_LT(z(rng), 100u);
  }
}

TEST(ZipfSampler, SingleElementPopulation) {
  // A singleton, constructed or derived, returns rank 0 and draws nothing.
  for (const ZipfSampler& z :
       {ZipfSampler(1, 1.0), ZipfSampler(1000, 0.7).with_population(1)}) {
    Xoshiro256 rng(5);
    Xoshiro256 untouched(5);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(z(rng), 0u);
    EXPECT_EQ(rng(), untouched());
  }
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  const ZipfSampler z(10, 0.0);
  const auto pmf = empirical_pmf(z, 200000);
  for (double p : pmf) EXPECT_NEAR(p, 0.1, 0.01);
}

TEST(ZipfSampler, PmfMatchesAnalyticZipf) {
  const double s = 1.1;
  const std::uint64_t n = 50;
  const ZipfSampler z(n, s);
  const auto pmf = empirical_pmf(z, 500000);
  double h = 0;
  for (std::uint64_t k = 1; k <= n; ++k) h += std::pow(k, -s);
  for (std::uint64_t k = 1; k <= n; ++k) {
    const double expected = std::pow(k, -s) / h;
    EXPECT_NEAR(pmf[k - 1], expected, 0.1 * expected + 0.002)
        << "rank " << k;
  }
}

TEST(ZipfSampler, HigherExponentMoreConcentrated) {
  const auto mild = empirical_pmf(ZipfSampler(1000, 0.8), 200000, 7);
  const auto steep = empirical_pmf(ZipfSampler(1000, 1.4), 200000, 7);
  EXPECT_GT(steep[0], mild[0]);
  // Top-10 mass ordering.
  double mild10 = 0;
  double steep10 = 0;
  for (int i = 0; i < 10; ++i) {
    mild10 += mild[i];
    steep10 += steep[i];
  }
  EXPECT_GT(steep10, mild10 + 0.1);
}

TEST(ZipfSampler, RanksAreMonotonicallyLessProbable) {
  const auto pmf = empirical_pmf(ZipfSampler(20, 1.0), 400000, 11);
  // Allow small noise, but rank 1 >= rank 5 >= rank 20 strictly.
  EXPECT_GT(pmf[0], pmf[4]);
  EXPECT_GT(pmf[4], pmf[19]);
}

TEST(ZipfSampler, LargePopulationStillBounded) {
  const ZipfSampler z(10'000'000, 1.05);
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(z(rng), 10'000'000u);
  }
}

class ZipfExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentSweep, EmpiricalPmfNormalisedAndInRange) {
  const ZipfSampler z(64, GetParam());
  const auto pmf = empirical_pmf(z, 100000, 17);
  double total = 0;
  for (double p : pmf) {
    total += p;
    ASSERT_GE(p, 0.0);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0, 1.3, 1.8,
                                           2.5));

// A sampler derived for population n must be indistinguishable from one
// constructed for it: the same ranks, and the same RNG state afterwards
// (rejection-inversion may consume several draws per sample).  s = 1 takes
// expm1_over_x's Taylor branch.
class ZipfDerivedPopulation
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfDerivedPopulation, MatchesConstructedSamplerDrawForDraw) {
  const auto [n, s] = GetParam();
  const ZipfSampler constructed(n, s);
  // Derive from a singleton and from an unrelated population: the result
  // must not depend on where the exponent's constants came from.
  for (const ZipfSampler& source : {ZipfSampler(1, s), ZipfSampler(7, s)}) {
    const ZipfSampler derived = source.with_population(n);
    ASSERT_EQ(derived.population(), n);
    ASSERT_EQ(derived.exponent(), s);
    Xoshiro256 want(23);
    Xoshiro256 got(23);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(derived(got), constructed(want)) << "draw " << i;
    }
    EXPECT_EQ(got(), want()) << "RNG state diverged after the draws";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PopulationsAndExponents, ZipfDerivedPopulation,
    ::testing::Combine(::testing::Values(1, 2, 3, 17, 1000, 1ULL << 20,
                                         10'000'000),
                       ::testing::Values(0.0, 0.5, 0.6, 0.7, 1.0, 1.3, 2.5)));

}  // namespace
}  // namespace edm::util
