#include "core/sigma_estimator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/wear_model.h"

namespace edm::core {

SigmaEstimator::SigmaEstimator(std::uint32_t pages_per_block, double initial,
                               std::size_t capacity)
    : np_(pages_per_block), initial_(initial), capacity_(capacity) {
  if (np_ == 0) throw std::invalid_argument("SigmaEstimator: Np must be > 0");
  if (capacity_ == 0) {
    throw std::invalid_argument("SigmaEstimator: capacity must be > 0");
  }
  obs_.reserve(capacity_);
}

void SigmaEstimator::observe(double write_pages, double utilization,
                             double erases) {
  if (!std::isfinite(write_pages) || !std::isfinite(utilization) ||
      !std::isfinite(erases)) {
    return;  // no signal (and a NaN would poison the fit)
  }
  if (write_pages <= 0.0 || erases <= 0.0) return;  // no signal
  if (utilization <= 0.0 || utilization > 1.0) return;
  const Observation obs{write_pages, utilization, erases};
  if (obs_.size() < capacity_) {
    obs_.push_back(obs);
  } else {
    obs_[next_] = obs;
    full_ = true;
  }
  next_ = (next_ + 1) % capacity_;
}

double SigmaEstimator::estimate() const {
  if (obs_.size() < min_observations_) return initial_;

  // F(u) depends on u alone and the window repeats utilizations, so each
  // candidate solves it once per distinct u: `us` holds the distinct
  // values, `slot[i]` observation i's index into them.
  std::vector<double> us;
  us.reserve(obs_.size());
  for (const auto& o : obs_) us.push_back(o.u);
  std::sort(us.begin(), us.end());
  us.erase(std::unique(us.begin(), us.end()), us.end());
  std::vector<std::size_t> slot;
  slot.reserve(obs_.size());
  for (const auto& o : obs_) {
    slot.push_back(static_cast<std::size_t>(
        std::lower_bound(us.begin(), us.end(), o.u) - us.begin()));
  }
  std::vector<double> ur(us.size());

  // Sum of squared relative prediction errors for a candidate sigma, in
  // observation order (erase_count(w, u) is erase_count_from_ur(w, F(u))).
  auto error = [&](double sigma) {
    const WearModel model(np_, sigma);
    for (std::size_t k = 0; k < us.size(); ++k) {
      ur[k] = model.ur_of_utilization(us[k]);
    }
    double total = 0.0;
    for (std::size_t i = 0; i < obs_.size(); ++i) {
      const Observation& o = obs_[i];
      const double predicted = model.erase_count_from_ur(o.wc, ur[slot[i]]);
      const double rel = (predicted - o.ec) / o.ec;
      total += rel * rel;
    }
    return total;
  };

  // Coarse grid over the plausible range, then a hill-climb around its best.
  double best_sigma = 0.0;
  double best_err = error(0.0);
  for (double sigma = 0.02; sigma <= 0.60; sigma += 0.02) {
    const double e = error(sigma);
    if (e < best_err) {
      best_err = e;
      best_sigma = sigma;
    }
  }
  // The bound reads the running best, so the walk goes on while it
  // improves and can end above 0.6.
  for (double sigma = best_sigma - 0.019; sigma <= best_sigma + 0.019;
       sigma += 0.002) {
    if (sigma < 0.0) continue;
    const double e = error(sigma);
    if (e < best_err) {
      best_err = e;
      best_sigma = sigma;
    }
  }
  return best_sigma;
}

}  // namespace edm::core
