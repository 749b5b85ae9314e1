#include "sim/health_monitor.h"

#include <algorithm>
#include <stdexcept>

namespace edm::sim {

void HealthConfig::validate() const {
  if (check_interval_us == 0) {
    throw std::invalid_argument(
        "HealthConfig: check_interval_us must be > 0");
  }
}

HealthMonitor::HealthMonitor(std::uint32_t num_osds)
    : ewma_(num_osds, util::Ewma(kLatencyAlpha)),
      flagged_(num_osds, 0),
      ever_flagged_(num_osds, 0),
      streak_(num_osds, 0) {}

void HealthMonitor::evaluate(SimTime now, std::vector<Transition>& out) {
  ++checks_;
  // Devices with enough samples to have a meaningful EWMA participate --
  // both as flag candidates and in each other's baselines.
  scoreable_scratch_.clear();
  for (OsdId i = 0; i < static_cast<OsdId>(ewma_.size()); ++i) {
    if (ewma_[i].count() >= kMinSamples) scoreable_scratch_.push_back(i);
  }
  if (scoreable_scratch_.size() < 2) return;  // no peers to compare against

  for (OsdId i : scoreable_scratch_) {
    const double v = ewma_[i].value();
    // Leave-one-out: score against the median of the *other* scoreable
    // devices.  A 2-device fleet can still flag its outlier, and a sick
    // device never drags its own baseline toward itself.
    median_scratch_.clear();
    for (OsdId j : scoreable_scratch_) {
      if (j != i) median_scratch_.push_back(ewma_[j].value());
    }
    const std::size_t mid = (median_scratch_.size() - 1) / 2;
    std::nth_element(median_scratch_.begin(), median_scratch_.begin() + mid,
                     median_scratch_.end());
    const double median = median_scratch_[mid];
    if (median <= 0.0) continue;
    if (!flagged_[i] && v > kFlagRatio * median) {
      if (++streak_[i] < kFlagStreak) continue;  // debounce
      flagged_[i] = 1;
      ever_flagged_[i] = 1;
      ++num_flagged_;
      ++flag_events_;
      if (first_flagged_at_ == 0) first_flagged_at_ = now;
      out.push_back({i, true});
    } else if (!flagged_[i]) {
      streak_[i] = 0;  // excursion over before the streak completed
    } else if (flagged_[i] && v < kClearRatio * median) {
      flagged_[i] = 0;
      streak_[i] = 0;
      --num_flagged_;
      ++clear_events_;
      out.push_back({i, false});
    }
  }
}

std::vector<std::uint32_t> HealthMonitor::ever_flagged() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < ever_flagged_.size(); ++i) {
    if (ever_flagged_[i]) out.push_back(i);
  }
  return out;
}

}  // namespace edm::sim
