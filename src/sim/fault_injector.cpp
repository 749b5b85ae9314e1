#include "sim/fault_injector.h"

#include <stdexcept>
#include <string>

namespace edm::sim {

namespace {
/// Tag folded into the plan seed for the stall stream so it is independent
/// of the transient-error stream: adding stalls to a plan must never shift
/// which requests draw transient errors.
constexpr std::uint64_t kStallStreamTag = 0x57A11ED0ull;
}  // namespace

void FaultPlan::validate(std::uint32_t num_osds) const {
  SimTime prev = 0;
  // Negated so that NaN is rejected too.
  auto check_unit = [](double value, const std::string& what) {
    if (!(value >= 0.0 && value <= 1.0)) {
      throw std::invalid_argument("FaultPlan: " + what +
                                  " must be in [0, 1], got " +
                                  std::to_string(value));
    }
  };
  auto check_osd = [num_osds](OsdId osd, const std::string& what) {
    if (osd >= num_osds) {
      throw std::invalid_argument(
          "FaultPlan: " + what + " targets OSD " + std::to_string(osd) +
          " but the cluster has " + std::to_string(num_osds) + " OSDs");
    }
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    if (e.at < prev) {
      throw std::invalid_argument(
          "FaultPlan: events must be sorted by time (event " +
          std::to_string(i) + " at t=" + std::to_string(e.at) +
          " precedes t=" + std::to_string(prev) + ")");
    }
    prev = e.at;
    check_osd(e.osd, "event " + std::to_string(i));
    if (e.kind == FaultEvent::Kind::kSlowdown) {
      if (e.factor < 1.0) {
        throw std::invalid_argument(
            "FaultPlan: slowdown event " + std::to_string(i) +
            " has factor " + std::to_string(e.factor) +
            " but fail-slow factors must be >= 1 (1 = nominal speed)");
      }
      check_unit(e.stall_rate,
                 "slowdown event " + std::to_string(i) + " stall_rate");
    }
  }
  // A fraction above 1 would never fire, and a NaN one names no record.
  double prev_fraction = 0.0;
  for (std::size_t i = 0; i < fraction_failures.size(); ++i) {
    const FractionFailure& f = fraction_failures[i];
    const std::string what = "fail_at_fraction " + std::to_string(i);
    check_unit(f.fraction, what);
    check_osd(f.osd, what);
    if (f.fraction < prev_fraction) {
      throw std::invalid_argument("FaultPlan: " + what +
                                  " follows a larger fraction (fraction "
                                  "failures must be sorted by fraction)");
    }
    prev_fraction = f.fraction;
  }
  check_unit(transient_error_rate, "transient_error_rate");
  for (std::size_t i = 0; i < per_osd_error_rates.size(); ++i) {
    check_unit(per_osd_error_rates[i],
               "per_osd_error_rates[" + std::to_string(i) + "]");
  }
  if (per_osd_error_rates.size() > num_osds) {
    throw std::invalid_argument(
        "FaultPlan: per_osd_error_rates has " +
        std::to_string(per_osd_error_rates.size()) + " entries for " +
        std::to_string(num_osds) + " OSDs");
  }
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint32_t num_osds)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      stall_rng_(plan_.seed ^ kStallStreamTag) {
  plan_.validate(num_osds);
  rates_.assign(num_osds, plan_.transient_error_rate);
  for (std::size_t i = 0; i < plan_.per_osd_error_rates.size(); ++i) {
    rates_[i] = plan_.per_osd_error_rates[i];
  }
  for (double r : rates_) any_rate_ |= r > 0.0;
  slow_.assign(num_osds, SlowState{});
}

bool FaultInjector::transient_error(OsdId osd) {
  // Zero-rate fast path draws nothing, so plans without transient errors
  // pay no RNG cost and the stream stays byte-identical whether or not
  // error-free devices exist.
  if (!any_rate_) return false;
  const double rate = rates_[osd];
  if (rate <= 0.0) return false;
  ++samples_;
  const bool hit = rng_.next_double() < rate;
  if (hit) ++transient_errors_;
  return hit;
}

void FaultInjector::apply_slowdown(const FaultEvent& e) {
  SlowState& s = slow_[e.osd];
  const bool was_slow = s.factor > 1.0 || s.stall_rate > 0.0;
  s.factor = e.factor;
  s.stall_rate = e.stall_rate;
  s.stall_us = e.stall_us;
  const bool is_slow = s.factor > 1.0 || s.stall_rate > 0.0;
  if (!was_slow && is_slow) ++num_slow_;
  if (was_slow && !is_slow) --num_slow_;
}

void FaultInjector::apply_recover(OsdId osd) {
  SlowState& s = slow_[osd];
  if (s.factor > 1.0 || s.stall_rate > 0.0) --num_slow_;
  s = SlowState{};
}

SimDuration FaultInjector::degrade(OsdId osd, SimDuration service) {
  const SlowState& s = slow_[osd];
  if (s.factor > 1.0) {
    service = static_cast<SimDuration>(static_cast<double>(service) *
                                       s.factor);
  }
  // The stall stream only advances for devices in stall mode, so plans
  // without stalls replay bit-identically with or without this branch.
  if (s.stall_rate > 0.0 && stall_rng_.next_double() < s.stall_rate) {
    service += s.stall_us;
    ++stalls_;
  }
  return service;
}

}  // namespace edm::sim
