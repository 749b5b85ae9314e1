// Straightforward reference implementations of the two planning hot
// spots: the brute-force sigma fit (one F(u) solve per observation per
// candidate) and Algorithm 1 with the paper's linear epsilon scan (every
// device's estimate re-solved on every iteration).  The equivalence tests
// require the production code, which solves F(u) once per distinct input,
// to return the same doubles, bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/balance.h"
#include "core/wear_model.h"

namespace edm::core::reference {

/// SigmaEstimator's fit without de-duplication: same ring buffer, same
/// observe() guards for finite inputs, and an error() that calls
/// erase_count(wc, u) for every observation.
class SigmaFit {
 public:
  explicit SigmaFit(std::uint32_t pages_per_block, double initial = 0.28,
                    std::size_t capacity = 4096);

  void observe(double write_pages, double utilization, double erases);
  double estimate() const;

 private:
  struct Observation {
    double wc;
    double u;
    double ec;
  };
  double error(double sigma) const;

  std::uint32_t np_;
  double initial_;
  std::size_t capacity_;
  std::size_t min_observations_ = 8;
  std::vector<Observation> obs_;
  std::size_t next_ = 0;
};

/// Where Algorithm 1's epsilon scans ended, summed over a call.
struct ScanCounts {
  std::size_t first = 0;    // stopped at the first epsilon
  std::size_t middle = 0;   // stopped later, gap closed before any cap
  std::size_t capped = 0;   // stopped because the shift hit its cap
  std::size_t off_end = 0;  // no epsilon stopped the scan
};

/// Algorithm 1 with the linear epsilon scan (step 0.001) and a full
/// recompute of every device's estimate at the top of each iteration.
std::vector<double> calculate_data_movement(const WearModel& model,
                                            std::span<const double> write_pages,
                                            std::span<const double> utilization,
                                            BalanceMode mode,
                                            const BalanceParams& params = {},
                                            ScanCounts* counts = nullptr);

}  // namespace edm::core::reference
