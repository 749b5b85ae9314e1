#include "planning_reference.h"

#include <algorithm>
#include <stdexcept>

namespace edm::core::reference {

SigmaFit::SigmaFit(std::uint32_t pages_per_block, double initial,
                   std::size_t capacity)
    : np_(pages_per_block), initial_(initial), capacity_(capacity) {
  obs_.reserve(capacity_);
}

void SigmaFit::observe(double write_pages, double utilization,
                       double erases) {
  if (write_pages <= 0.0 || erases <= 0.0) return;
  if (utilization <= 0.0 || utilization > 1.0) return;
  const Observation obs{write_pages, utilization, erases};
  if (obs_.size() < capacity_) {
    obs_.push_back(obs);
  } else {
    obs_[next_] = obs;
  }
  next_ = (next_ + 1) % capacity_;
}

double SigmaFit::error(double sigma) const {
  const WearModel model(np_, sigma);
  double total = 0.0;
  for (const auto& o : obs_) {
    const double predicted = model.erase_count(o.wc, o.u);
    const double rel = (predicted - o.ec) / o.ec;
    total += rel * rel;
  }
  return total;
}

double SigmaFit::estimate() const {
  if (obs_.size() < min_observations_) return initial_;
  double best_sigma = 0.0;
  double best_err = error(0.0);
  for (double sigma = 0.02; sigma <= 0.60; sigma += 0.02) {
    const double e = error(sigma);
    if (e < best_err) {
      best_err = e;
      best_sigma = sigma;
    }
  }
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

std::vector<double> calculate_data_movement(const WearModel& model,
                                            std::span<const double> write_pages,
                                            std::span<const double> utilization,
                                            BalanceMode mode,
                                            const BalanceParams& params,
                                            ScanCounts* counts) {
  if (write_pages.size() != utilization.size()) {
    throw std::invalid_argument(
        "calculate_data_movement: array size mismatch");
  }
  constexpr double kEpsilonStep = 0.001;
  const std::size_t n = write_pages.size();
  std::vector<double> delta(n, 0.0);
  if (n < 2) return delta;

  std::vector<double> wc(write_pages.begin(), write_pages.end());
  std::vector<double> u(utilization.begin(), utilization.end());

  std::vector<double> ec(n);
  auto recompute = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      ec[i] = model.erase_count(wc[i], u[i]);
    }
  };

  std::vector<char> frozen_src(n, 0);
  std::vector<char> frozen_dst(n, 0);

  for (int step = 0; step < params.iterations; ++step) {
    recompute();
    std::size_t x = n;
    std::size_t y = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen_src[i] && (x == n || ec[i] > ec[x])) x = i;
      if (!frozen_dst[i] && (y == n || ec[i] < ec[y])) y = i;
    }
    if (x == n || y == n || x == y ||
        ec[x] - ec[y] <= 1e-9 * std::max(1.0, ec[x])) {
      break;
    }

    const double movable = mode == BalanceMode::kWritePages ? wc[x] : u[x];
    if (movable <= 0.0) {
      frozen_src[x] = 1;
      continue;
    }

    double max_shift = movable;
    if (mode == BalanceMode::kUtilization) {
      const double shed_left = params.max_source_shed - (-delta[x]);
      max_shift = std::min({u[x] - params.utilization_floor,
                            params.utilization_ceiling - u[y], shed_left});
      if (max_shift <= 0.0) {
        if (u[x] - params.utilization_floor <= 0.0 || shed_left <= 0.0) {
          frozen_src[x] = 1;
        }
        if (params.utilization_ceiling - u[y] <= 0.0) frozen_dst[y] = 1;
        continue;
      }
    }

    double shift = 0.0;
    bool capped = false;
    bool stopped = false;
    std::size_t probes = 0;
    for (double eps = kEpsilonStep; eps < 1.0; eps += kEpsilonStep) {
      ++probes;
      shift = movable * eps;
      if (shift >= max_shift) {
        shift = max_shift;
        capped = true;
      }
      double ec_x, ec_y;
      if (mode == BalanceMode::kWritePages) {
        ec_x = model.erase_count(wc[x] - shift, u[x]);
        ec_y = model.erase_count(wc[y] + shift, u[y]);
      } else {
        ec_x = model.erase_count(wc[x], u[x] - shift);
        ec_y = model.erase_count(wc[y], u[y] + shift);
      }
      if (capped || ec_x - ec_y <= 0.0) {
        stopped = true;
        break;
      }
    }
    if (counts != nullptr) {
      if (!stopped) {
        ++counts->off_end;
      } else if (capped) {
        ++counts->capped;
      } else if (probes == 1) {
        ++counts->first;
      } else {
        ++counts->middle;
      }
    }

    if (mode == BalanceMode::kWritePages) {
      delta[x] -= shift;
      delta[y] += shift;
      wc[x] -= shift;
      wc[y] += shift;
    } else {
      delta[x] -= shift;
      delta[y] += shift;
      u[x] -= shift;
      u[y] += shift;
      if (capped) {
        if (u[x] - params.utilization_floor <= 1e-12 ||
            params.max_source_shed + delta[x] <= 1e-12) {
          frozen_src[x] = 1;
        }
        if (params.utilization_ceiling - u[y] <= 1e-12) frozen_dst[y] = 1;
        if (!frozen_src[x] && !frozen_dst[y]) frozen_src[x] = 1;
      }
    }
  }
  return delta;
}

}  // namespace edm::core::reference
