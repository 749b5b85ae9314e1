#include "workload/tenant.h"

#include <cmath>
#include <stdexcept>

#include "trace/profile.h"

namespace edm::workload {

namespace {

// splitmix64-style odd multipliers decorrelating per-tenant stream and
// arrival seeds from the shared base seeds.
constexpr std::uint64_t kStreamSalt = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kArrivalSalt = 0xBF58476D1CE4E5B9ull;

double parse_double_field(const std::string& field, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(field, &pos);
    if (pos != field.size()) throw std::invalid_argument(field);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("bad tenant ") + what + " '" +
                                field + "'");
  }
}

}  // namespace

void DriftConfig::validate() const {
  if (period_s < 0.0) {
    throw std::invalid_argument("drift period must be >= 0");
  }
  if (step <= 0.0 || step > 1.0) {
    throw std::invalid_argument("drift step must be in (0, 1]");
  }
}

void TenantSpec::validate() const {
  trace::profile_by_name(profile);  // throws for unknown profiles
  if (!(scale > 0.0)) {
    throw std::invalid_argument("tenant scale must be > 0 (profile '" +
                                profile + "')");
  }
  if (!(rate_ops_per_sec > 0.0)) {
    throw std::invalid_argument(
        "tenant rate must be > 0 ops/s (profile '" + profile +
        "'); open-loop injection needs an offered load");
  }
  if (!(slo_ms > 0.0)) {
    throw std::invalid_argument("tenant SLO must be > 0 ms (profile '" +
                                profile + "')");
  }
  if (arrival == ArrivalKind::kClosed) {
    throw std::invalid_argument("tenant arrival kind must be open (profile '" +
                                profile + "')");
  }
  burst.validate();
  diurnal.validate();
  drift.validate();
}

void OpenLoopConfig::validate() const {
  if (tenants.size() > 0xFFFF) {
    throw std::invalid_argument("at most 65535 tenants");
  }
  for (const TenantSpec& t : tenants) t.validate();
}

TenantSpec parse_tenant_spec(const std::string& spec,
                             const TenantSpec& defaults) {
  TenantSpec out = defaults;
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    fields.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (fields.empty() || fields[0].empty()) {
    throw std::invalid_argument("tenant spec '" + spec +
                                "' missing a profile name");
  }
  if (fields.size() > 4) {
    throw std::invalid_argument("tenant spec '" + spec +
                                "' has too many fields "
                                "(profile[:rate[:slo_ms[:scale]]])");
  }
  out.profile = fields[0];
  if (fields.size() > 1 && !fields[1].empty()) {
    out.rate_ops_per_sec = parse_double_field(fields[1], "rate");
  }
  if (fields.size() > 2 && !fields[2].empty()) {
    out.slo_ms = parse_double_field(fields[2], "slo");
  }
  if (fields.size() > 3 && !fields[3].empty()) {
    out.scale = parse_double_field(fields[3], "scale");
  }
  return out;
}

struct OpenLoopSource::Tenant {
  TenantSpec spec;
  std::string display_name;
  trace::RecordStream stream;
  ArrivalProcess arrivals;
  FileId file_base = 0;
  std::uint64_t file_count = 0;
  std::uint64_t drift_period_us = 0;
  std::uint64_t drift_step_files = 0;
  Arrival pending;
  bool has_pending = false;

  Tenant(const TenantSpec& s, const trace::WorkloadProfile& profile,
         std::uint16_t clients, std::uint64_t arrival_seed)
      : spec(s),
        stream(profile, clients),
        arrivals(s.arrival, s.rate_ops_per_sec, arrival_seed, s.burst,
                 s.diurnal) {}
};

namespace {

trace::WorkloadProfile tenant_profile(const TenantSpec& spec,
                                      std::uint64_t seed_offset,
                                      std::size_t index) {
  trace::WorkloadProfile profile =
      trace::profile_by_name(spec.profile).scaled(spec.scale);
  profile.seed ^=
      seed_offset ^ (kStreamSalt * static_cast<std::uint64_t>(index + 1));
  return profile;
}

}  // namespace

OpenLoopSource::OpenLoopSource(const OpenLoopConfig& config,
                               std::uint16_t clients,
                               std::uint64_t seed_offset)
    : cfg_(config), clients_(clients), seed_offset_(seed_offset) {
  if (!cfg_.enabled()) {
    throw std::invalid_argument("OpenLoopSource needs at least one tenant");
  }
  cfg_.validate();
  tenants_.reserve(cfg_.tenants.size());
  FileId next_base = 0;
  for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
    const TenantSpec& spec = cfg_.tenants[i];
    const std::uint64_t arrival_seed =
        cfg_.arrival_seed ^ seed_offset_ ^
        (kArrivalSalt * static_cast<std::uint64_t>(i + 1));
    auto t = std::make_unique<Tenant>(
        spec, tenant_profile(spec, seed_offset_, i), clients_, arrival_seed);
    t->file_base = next_base;
    t->file_count = t->stream.files().size();
    if (spec.drift.enabled() && t->file_count > 1) {
      t->drift_period_us =
          static_cast<std::uint64_t>(spec.drift.period_s * 1e6);
      t->drift_step_files = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::llround(spec.drift.step *
                              static_cast<double>(t->file_count))));
    }
    for (const trace::FileSpec& f : t->stream.files()) {
      files_.push_back({next_base + f.id, f.size_bytes});
    }
    next_base += t->file_count;
    if (!name_.empty()) name_ += '+';
    name_ += spec.profile;
    tenants_.push_back(std::move(t));
  }
  // Disambiguate repeated profiles in the per-tenant display names.
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    bool duplicated = false;
    for (std::size_t j = 0; j < tenants_.size(); ++j) {
      if (j != i && tenants_[j]->spec.profile == tenants_[i]->spec.profile) {
        duplicated = true;
        break;
      }
    }
    tenants_[i]->display_name =
        duplicated ? tenants_[i]->spec.profile + "#" + std::to_string(i)
                   : tenants_[i]->spec.profile;
  }
  for (std::size_t i = 0; i < tenants_.size(); ++i) refill(i);
}

OpenLoopSource::~OpenLoopSource() = default;

std::uint16_t OpenLoopSource::tenant_count() const {
  return static_cast<std::uint16_t>(tenants_.size());
}

const TenantSpec& OpenLoopSource::spec(std::uint16_t tenant) const {
  return tenants_.at(tenant)->spec;
}

const std::string& OpenLoopSource::tenant_name(std::uint16_t tenant) const {
  return tenants_.at(tenant)->display_name;
}

double OpenLoopSource::offered_ops_per_sec() const {
  double sum = 0.0;
  for (const auto& t : tenants_) sum += t->spec.rate_ops_per_sec;
  return sum;
}

void OpenLoopSource::refill(std::size_t index) {
  Tenant& t = *tenants_[index];
  trace::Record rec;
  if (!t.stream.next(rec)) {
    t.has_pending = false;
    return;
  }
  const SimTime at = t.arrivals.next();
  std::uint64_t file = rec.file;
  if (t.drift_period_us > 0) {
    // Hot-set rotation: shift the id mapping by step*file_count per
    // period.  The Zipf head lands on previously-cold files while the
    // marginal file-popularity distribution is unchanged.
    const std::uint64_t shift = (at / t.drift_period_us) * t.drift_step_files;
    file = (file + shift) % t.file_count;
  }
  rec.file = t.file_base + file;
  t.pending.at = at;
  t.pending.tenant = static_cast<std::uint16_t>(index);
  t.pending.record = rec;
  t.has_pending = true;
}

bool OpenLoopSource::next(Arrival& out) {
  std::size_t best = tenants_.size();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = *tenants_[i];
    if (!t.has_pending) continue;
    if (best == tenants_.size() || t.pending.at < tenants_[best]->pending.at) {
      best = i;  // ties resolve to the lowest tenant index
    }
  }
  if (best == tenants_.size()) return false;
  out = tenants_[best]->pending;
  refill(best);
  return true;
}

std::uint64_t OpenLoopSource::total_records() {
  if (!total_records_) {
    std::uint64_t total = 0;
    trace::Record rec;
    for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
      trace::RecordStream probe(tenant_profile(cfg_.tenants[i], seed_offset_, i),
                                clients_);
      while (probe.next(rec)) ++total;
    }
    total_records_ = total;
  }
  return *total_records_;
}

}  // namespace edm::workload
