#include "sim/experiment.h"

#include <gtest/gtest.h>

#include "trace/generator.h"

namespace edm::sim {
namespace {

ExperimentConfig tiny(core::PolicyKind policy) {
  ExperimentConfig cfg;
  cfg.trace_name = "home02";
  cfg.scale = 0.005;
  cfg.num_osds = 8;
  cfg.policy = policy;
  return cfg;
}

TEST(Finalize, DerivesClientsAsHalfTheOsds) {
  ExperimentConfig cfg = tiny(core::PolicyKind::kNone);
  cfg.num_osds = 20;
  const auto out = finalize(cfg);
  EXPECT_EQ(out.num_clients, 10u);
  EXPECT_EQ(out.sim.num_clients, 10u);
}

TEST(Finalize, KeepsExplicitClients) {
  ExperimentConfig cfg = tiny(core::PolicyKind::kNone);
  cfg.num_clients = 3;
  EXPECT_EQ(finalize(cfg).num_clients, 3u);
}

TEST(Finalize, ScalesResponseWindowNotEpoch) {
  ExperimentConfig cfg = tiny(core::PolicyKind::kNone);
  cfg.scale = 0.1;
  const auto out = finalize(cfg);
  EXPECT_LT(out.sim.response_window_us, cfg.sim.response_window_us);
  EXPECT_EQ(out.sim.epoch_length_us, cfg.sim.epoch_length_us);
}

TEST(Finalize, IsIdempotent) {
  ExperimentConfig cfg = tiny(core::PolicyKind::kNone);
  cfg.scale = 0.1;
  const auto once = finalize(cfg);
  const auto twice = finalize(once);
  EXPECT_EQ(once.sim.response_window_us, twice.sim.response_window_us);
  EXPECT_EQ(once.num_clients, twice.num_clients);
}

TEST(Finalize, SyncsWearModelToFlashGeometry) {
  ExperimentConfig cfg = tiny(core::PolicyKind::kHdf);
  cfg.flash.pages_per_block = 64;
  const auto out = finalize(cfg);
  EXPECT_EQ(out.policy_config.model.pages_per_block(), 64u);
}

TEST(RunExperiment, BaselineEndToEnd) {
  const RunResult r = run_experiment(tiny(core::PolicyKind::kNone));
  EXPECT_GT(r.completed_ops, 0u);
  EXPECT_GT(r.aggregate_erases(), 0u);
  EXPECT_EQ(r.policy_name, "baseline");
  EXPECT_EQ(r.num_osds, 8u);
  EXPECT_EQ(r.migration.moved_objects, 0u);
}

TEST(RunExperiment, DeterministicAcrossCalls) {
  const auto cfg = tiny(core::PolicyKind::kHdf);
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.aggregate_erases(), b.aggregate_erases());
  EXPECT_EQ(a.migration.moved_objects, b.migration.moved_objects);
}

TEST(RunExperiment, SharedTraceVariantMatchesGenerated) {
  const auto cfg = finalize(tiny(core::PolicyKind::kNone));
  const auto profile =
      trace::profile_by_name(cfg.trace_name).scaled(cfg.scale);
  const auto trace =
      trace::TraceGenerator(profile, cfg.num_clients).generate();
  const RunResult a = run_experiment(cfg);
  const RunResult b = run_experiment(cfg, trace);
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.aggregate_erases(), b.aggregate_erases());
}

class ExperimentPolicySweep
    : public ::testing::TestWithParam<core::PolicyKind> {};

TEST_P(ExperimentPolicySweep, RunsCleanlyAndConservesObjects) {
  const RunResult r = run_experiment(tiny(GetParam()));
  EXPECT_GT(r.completed_ops, 0u);
  EXPECT_GT(r.total_objects, 0u);
  EXPECT_LE(r.migration.moved_objects, r.total_objects);
  EXPECT_GE(r.mean_response_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExperimentPolicySweep,
                         ::testing::Values(core::PolicyKind::kNone,
                                           core::PolicyKind::kCmt,
                                           core::PolicyKind::kHdf,
                                           core::PolicyKind::kCdf));

}  // namespace
}  // namespace edm::sim
