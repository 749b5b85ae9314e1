#include "core/balance.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace edm::core {

namespace {

/// The paper's epsilon grid, accumulated exactly as a
/// `for (eps = 0.001; eps < 1.0; eps += 0.001)` scan visits it, so its
/// length and every value match that loop bit for bit.
const std::vector<double>& epsilon_table() {
  static const std::vector<double> table = [] {
    constexpr double kStep = 0.001;
    std::vector<double> eps;
    for (double e = kStep; e < 1.0; e += kStep) eps.push_back(e);
    return eps;
  }();
  return table;
}

/// One point of the epsilon scan: the shift it books and whether it ends
/// the scan (the shift hit its cap, or the pair's erase gap closed).
struct Probe {
  double shift = 0.0;
  bool capped = false;
  bool stops = false;
};

}  // namespace

std::vector<double> calculate_data_movement(const WearModel& model,
                                            std::span<const double> write_pages,
                                            std::span<const double> utilization,
                                            BalanceMode mode,
                                            const BalanceParams& params) {
  if (write_pages.size() != utilization.size()) {
    throw std::invalid_argument(
        "calculate_data_movement: array size mismatch");
  }
  for (const double w : write_pages) {
    if (!(w >= 0.0)) {
      throw std::invalid_argument(
          "calculate_data_movement: write pages must be non-negative");
    }
  }
  const std::size_t n = write_pages.size();
  std::vector<double> delta(n, 0.0);
  if (n < 2) return delta;

  // Working copies; the algorithm mutates them as shifts are booked.
  std::vector<double> wc(write_pages.begin(), write_pages.end());
  std::vector<double> u(utilization.begin(), utilization.end());

  // F(u) and the Eq. 4 estimate per device.
  std::vector<double> ur(n);
  std::vector<double> ec(n);
  for (std::size_t i = 0; i < n; ++i) {
    ur[i] = model.ur_of_utilization(u[i]);
    ec[i] = model.erase_count_from_ur(wc[i], ur[i]);
  }

  // Devices that hit a utilization bound stop participating as source
  // (frozen_src) or destination (frozen_dst).
  std::vector<char> frozen_src(n, 0);
  std::vector<char> frozen_dst(n, 0);

  const std::vector<double>& eps = epsilon_table();
  for (int step = 0; step < params.iterations; ++step) {
    std::size_t x = n;
    std::size_t y = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen_src[i] && (x == n || ec[i] > ec[x])) x = i;
      if (!frozen_dst[i] && (y == n || ec[i] < ec[y])) y = i;
    }
    if (x == n || y == n || x == y ||
        ec[x] - ec[y] <= 1e-9 * std::max(1.0, ec[x])) {
      break;  // converged or nothing movable
    }

    const double movable = mode == BalanceMode::kWritePages ? wc[x] : u[x];
    if (movable <= 0.0) {
      frozen_src[x] = 1;
      continue;
    }

    // Hard cap on the shift (utilization mode only; write pages can always
    // equalise the pair).
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

    // Paper's inner loop: smallest epsilon whose shift closes the gap.
    auto probe = [&](std::size_t k) {
      Probe p;
      p.shift = movable * eps[k];
      if (p.shift >= max_shift) {
        p.shift = max_shift;
        p.capped = true;
      }
      double ec_x, ec_y;
      if (mode == BalanceMode::kWritePages) {
        ec_x = model.erase_count_from_ur(wc[x] - p.shift, ur[x]);
        ec_y = model.erase_count_from_ur(wc[y] + p.shift, ur[y]);
      } else {
        ec_x = model.erase_count(wc[x], u[x] - p.shift);
        ec_y = model.erase_count(wc[y], u[y] + p.shift);
      }
      p.stops = p.capped || ec_x - ec_y <= 0.0;
      return p;
    };
    // `stops` is false below some index and true from it on, so gallop
    // from the front (0, 1, 3, 7, ...; most scans stop at the first
    // epsilon) and bisect the bracket.  No stopping index leaves the last
    // epsilon's shift, where the linear scan ran off the end.
    std::size_t below = 0;  // every index < below does not stop
    std::size_t k = 0;
    Probe found = probe(0);
    while (!found.stops && k + 1 < eps.size()) {
      below = k + 1;
      k = std::min(2 * k + 1, eps.size() - 1);
      found = probe(k);
    }
    if (found.stops) {
      while (below < k) {
        const std::size_t mid = below + (k - below) / 2;
        const Probe p = probe(mid);
        if (p.stops) {
          k = mid;
          found = p;
        } else {
          below = mid + 1;
        }
      }
    }
    const double shift = found.shift;
    const bool capped = found.capped;

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
      // A capped pair cannot make further progress against each other;
      // freeze whichever side hit its bound.
      if (capped) {
        if (u[x] - params.utilization_floor <= 1e-12 ||
            params.max_source_shed + delta[x] <= 1e-12) {
          frozen_src[x] = 1;
        }
        if (params.utilization_ceiling - u[y] <= 1e-12) frozen_dst[y] = 1;
        if (!frozen_src[x] && !frozen_dst[y]) frozen_src[x] = 1;
      }
    }
    // A shift changes only x and y; HDF holds u, hence F(u), fixed.
    for (const std::size_t i : {x, y}) {
      if (mode == BalanceMode::kUtilization) {
        ur[i] = model.ur_of_utilization(u[i]);
      }
      ec[i] = model.erase_count_from_ur(wc[i], ur[i]);
    }
  }
  return delta;
}

}  // namespace edm::core
