// Multi-tenant open-loop workload overlays.
//
// An OpenLoopSource mixes N tenants -- each a (profile, arrival process,
// modulators) triple -- onto one cluster.  Every tenant owns a private
// trace::RecordStream (the same lazy generator the closed-loop replay
// streams from) whose file population is rebased into a disjoint id range,
// so tenants share OSDs and flash but never files.  The source merges the
// per-tenant record streams into one globally time-ordered arrival
// sequence: each record is stamped by the tenant's ArrivalProcess, and
// next() pops the earliest pending arrival across tenants (ties broken by
// tenant index).
//
// Popularity drift re-skews each tenant's hot set over simulated time by
// rotating file ids: every drift period the mapping shifts by
// step*file_count files, so the Zipf-hot head of the population moves to
// previously-cold files while the marginal distribution of the trace is
// untouched.
//
// Determinism: the merged sequence is a pure function of (config, clients,
// seed_offset) -- per-tenant streams draw from independent seeded RNGs,
// the merge is order-deterministic, and nothing here observes the
// simulator's progress (open loop).
//
// Thread-safety: none; confine to one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/cursor.h"
#include "trace/record.h"
#include "workload/arrival.h"

namespace edm::workload {

/// Hot-set rotation over simulated time.  Every `period_s` the tenant's
/// file-id mapping advances by round(step * file_count) files.
struct DriftConfig {
  double period_s = 0.0;     // 0 = off
  double step = 1.0 / 16.0;  // fraction of the population per period
  bool enabled() const { return period_s > 0.0 && step > 0.0; }
  void validate() const;  // throws std::invalid_argument
};

/// One tenant of the overlay.
struct TenantSpec {
  std::string profile = "home02";  // trace::profile_by_name key
  double scale = 0.0;              // trace scale; 0 = inherit experiment
  double rate_ops_per_sec = 0.0;   // offered load; must be > 0
  double slo_ms = 100.0;           // per-op response-time SLO
  ArrivalKind arrival = ArrivalKind::kPoisson;
  BurstConfig burst;
  DiurnalConfig diurnal;
  DriftConfig drift;

  void validate() const;  // throws std::invalid_argument
};

/// Whole-subsystem switch: an empty tenant list means closed-loop replay
/// (the digest-pinned default) and the simulator never sees this type.
struct OpenLoopConfig {
  std::vector<TenantSpec> tenants;
  std::uint64_t arrival_seed = 0;  // extra salt for all arrival draws

  bool enabled() const { return !tenants.empty(); }
  void validate() const;  // throws std::invalid_argument
};

/// Parses "profile[:rate[:slo_ms[:scale]]]" (e.g. "lair62:800:50");
/// omitted fields inherit `defaults`.  Throws std::invalid_argument.
TenantSpec parse_tenant_spec(const std::string& spec,
                             const TenantSpec& defaults);

/// One merged arrival: a trace record stamped with its absolute arrival
/// time and owning tenant.
struct Arrival {
  SimTime at = 0;
  std::uint16_t tenant = 0;
  trace::Record record;
};

class OpenLoopSource {
 public:
  /// `clients` is the per-tenant generator client-tag count (as in
  /// run_experiment); `seed_offset` is the experiment's trace_seed_offset.
  OpenLoopSource(const OpenLoopConfig& config, std::uint16_t clients,
                 std::uint64_t seed_offset = 0);
  ~OpenLoopSource();
  OpenLoopSource(const OpenLoopSource&) = delete;
  OpenLoopSource& operator=(const OpenLoopSource&) = delete;

  /// Combined file population (all tenants, rebased to disjoint ranges).
  const std::vector<trace::FileSpec>& files() const { return files_; }

  /// "home02+lair62"-style label for reports.
  const std::string& name() const { return name_; }

  std::uint16_t tenant_count() const;
  const TenantSpec& spec(std::uint16_t tenant) const;
  /// Display name: the profile, suffixed "#<i>" when profiles repeat.
  const std::string& tenant_name(std::uint16_t tenant) const;

  /// Sum of the tenants' configured rates (long-run offered ops/s).
  double offered_ops_per_sec() const;

  /// Pops the earliest pending arrival across tenants; false when every
  /// tenant's stream is exhausted.
  bool next(Arrival& out);

  /// Total records the merged sequence will emit.  Counting pre-pass over
  /// independent streams on first call, cached; this source's position is
  /// undisturbed.
  std::uint64_t total_records();

 private:
  struct Tenant;

  void refill(std::size_t index);

  OpenLoopConfig cfg_;
  std::uint16_t clients_;
  std::uint64_t seed_offset_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<trace::FileSpec> files_;
  std::string name_;
  std::optional<std::uint64_t> total_records_;
};

}  // namespace edm::workload
