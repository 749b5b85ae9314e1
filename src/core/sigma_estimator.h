// Online calibration of the wear model's impact factor sigma.
//
// The paper sets sigma = 0.28 empirically from offline trace simulation
// (Fig. 3).  In a live cluster the same fit can be made online: every
// monitoring window yields per-device observations (Wc, u, measured Ec),
// and sigma is the single free parameter of Eq. 4 -- so a 1-D least-squares
// fit over recent observations keeps the model matched to the workload as
// it drifts.  This is a natural "future work" extension: EDM's movement
// amounts are only as good as F(u).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace edm::core {

class SigmaEstimator {
 public:
  /// `pages_per_block` is the device Np; `initial` is returned until
  /// enough observations arrive; `capacity` bounds the observation window
  /// (oldest evicted first).
  explicit SigmaEstimator(std::uint32_t pages_per_block,
                          double initial = 0.28, std::size_t capacity = 4096);

  /// One device-window observation: host page writes, disk utilization and
  /// the erases the device actually performed in the window.  Observations
  /// with no writes or no erases, a utilization outside (0, 1], or any
  /// non-finite value carry no signal and are ignored.
  void observe(double write_pages, double utilization, double erases);

  /// Least-squares sigma over the current observation window: a 0.02 grid
  /// over [0, 0.6], then a 0.002-step hill-climb from the grid's best that
  /// keeps going while it improves, so the result can exceed 0.6.  Each
  /// candidate solves F(u) once per distinct utilization in the window.
  /// Falls back to the initial value with fewer than `min_observations`
  /// samples.
  double estimate() const;

  std::size_t observations() const { return obs_.size(); }
  std::size_t min_observations() const { return min_observations_; }

 private:
  struct Observation {
    double wc;
    double u;
    double ec;
  };

  std::uint32_t np_;
  double initial_;
  std::size_t capacity_;
  std::size_t min_observations_ = 8;
  std::vector<Observation> obs_;  // ring buffer
  std::size_t next_ = 0;
  bool full_ = false;
};

}  // namespace edm::core
