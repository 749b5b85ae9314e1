#include "telemetry/sampler.h"

#include <cmath>
#include <ostream>
#include <stdexcept>

namespace edm::telemetry {

namespace {
double safe(double v) { return std::isfinite(v) ? v : 0.0; }
}  // namespace

Sampler::Sampler(SimDuration interval_us) : interval_us_(interval_us) {
  if (interval_us_ == 0) {
    throw std::invalid_argument("Sampler: interval must be > 0");
  }
}

SampleRow& Sampler::add_row(SimTime t) {
  rows_.push_back(SampleRow{t, 0, {}});
  return rows_.back();
}

void Sampler::write_csv(std::ostream& os) const {
  const std::size_t num_osds = rows_.empty() ? 0 : rows_.front().osds.size();
  os << "t_us,inflight_migration_bytes";
  for (std::size_t i = 0; i < num_osds; ++i) {
    os << ",qd" << i << ",util" << i << ",load_ewma_us" << i << ",erases"
       << i;
  }
  os << '\n';
  for (const SampleRow& row : rows_) {
    os << row.t << ',' << row.inflight_migration_bytes;
    for (const OsdSample& o : row.osds) {
      os << ',' << o.queue_depth << ',' << safe(o.utilization) << ','
         << safe(o.load_ewma_us) << ',' << o.erases;
    }
    os << '\n';
  }
}

}  // namespace edm::telemetry
