// Migration policy interface and configuration.
//
// A policy is a pure planning function: ClusterView snapshot in, list of
// (oid, src, dst) triples out.  Executing the plan (the actual object
// shuffling and its I/O cost) is the data mover's job in the simulation
// layer, mirroring the module split of the paper's architecture (Fig. 4:
// wear monitor / access tracker / remapping manager / data mover).
#pragma once

#include <memory>
#include <string>

#include "core/balance.h"
#include "core/plan.h"
#include "core/view.h"
#include "core/wear_model.h"

namespace edm::telemetry {
class Recorder;
}  // namespace edm::telemetry

namespace edm::core {

struct PolicyConfig {
  /// Wear-imbalance trigger threshold lambda (paper SIII.B.2).
  double lambda = 0.15;

  /// Wear model parameters (Np from the flash geometry; sigma = 0.28).
  WearModel model{32, 0.28};

  /// Algorithm 1 parameters.
  BalanceParams balance{};
};

class MigrationPolicy {
 public:
  explicit MigrationPolicy(PolicyConfig config) : cfg_(config) {}
  virtual ~MigrationPolicy() = default;

  virtual const char* name() const = 0;

  /// Whether foreground requests touching an in-flight object must block
  /// (paper SV.D: HDF blocks; CDF's cold objects are almost never accessed,
  /// so it does not).
  virtual bool blocks_foreground() const = 0;

  /// Computes a migration plan.  When `force` is false the policy first
  /// applies its own trigger condition and may return an empty plan; the
  /// paper's evaluation forces one shuffle at the replay midpoint.
  virtual MigrationPlan plan(const ClusterView& view, bool force) = 0;

  const PolicyConfig& config() const { return cfg_; }

  /// Swaps the wear model (online sigma re-calibration; see
  /// core::SigmaEstimator).  Takes effect on the next plan() call.
  void set_model(const WearModel& model) { cfg_.model = model; }

  /// Hooks the policy into a run's telemetry: each plan() call emits one
  /// policy-trigger instant event plus plan counters.  Null detaches.
  void set_recorder(telemetry::Recorder* recorder) { recorder_ = recorder; }

 protected:
  /// Emits the policy-trigger instant ("<name>.plan") with the trigger
  /// signal and the number of planned actions; no-op without a recorder.
  void note_plan(double signal, std::size_t actions) const;

  PolicyConfig cfg_;
  telemetry::Recorder* recorder_ = nullptr;
};

enum class PolicyKind { kNone, kCmt, kHdf, kCdf };

const char* to_string(PolicyKind kind);
PolicyKind policy_kind_from(const std::string& name);

/// Factory; kNone yields nullptr (the baseline system has no migration).
std::unique_ptr<MigrationPolicy> make_policy(PolicyKind kind,
                                             const PolicyConfig& config);

}  // namespace edm::core
