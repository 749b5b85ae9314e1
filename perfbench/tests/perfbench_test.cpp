// The replay benchmark's own tests: the timing decorator is behaviour-
// neutral, every workload prints every metric BENCHMARK.json names, and
// fingerprints repeat and match the library's run_experiment.  Workloads
// run at a tiny scale; timings are not checked, only that they exist.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "cell.h"
#include "hostspeed.h"
#include "cluster/placement.h"
#include "core/policy.h"
#include "sim/experiment.h"
#include "telemetry/telemetry.h"
#include "timed_policy.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTinyScale = 0.02;

/// Metric names one section ("end_to_end" / "per_layer") of BENCHMARK.json
/// lists.
std::vector<std::string> manifest_names(const std::string& section) {
  std::ifstream in(PERFBENCH_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  const auto begin = s.find("\"" + section + "\"");
  const auto end = s.find(']', begin);
  EXPECT_NE(begin, std::string::npos) << section;
  const std::regex name("\"name\":\\s*\"([^\"]+)\"");
  std::vector<std::string> names;
  for (std::sregex_iterator it(s.begin() + static_cast<long>(begin),
                               s.begin() + static_cast<long>(end), name),
       last;
       it != last; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

/// Metric names a report's JSON line prints.
std::set<std::string> printed_names(const Report& report) {
  const std::string json = to_json(report, "{}");
  const std::regex name("\"([A-Za-z0-9_.]+)\": \\{\"value\"");
  std::set<std::string> names;
  for (std::sregex_iterator it(json.begin(), json.end(), name), last;
       it != last; ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

double metric(const Report& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0.0;
}

// No time budget: one pass over the input set (plain), one round (traced).
const RunOptions kOnePass{0.0};

TEST(TimedPolicy, ForwardsModelAndRecorderBeforeEveryPlan) {
  edm::core::PolicyConfig config;
  auto inner = edm::core::make_policy(edm::core::PolicyKind::kCdf, config);
  TimedPolicy timed(*inner);

  // What a Simulator does to the policy it is handed: attach telemetry,
  // refit sigma, plan.
  edm::telemetry::TelemetryConfig tel;
  tel.metrics_enabled = true;
  edm::telemetry::Recorder recorder(tel);
  timed.set_recorder(&recorder);
  timed.set_model(edm::core::WearModel(32, 0.41));

  const edm::cluster::Placement placement(8, 4, 4);
  edm::core::ClusterView view;
  view.placement = &placement;
  view.devices.resize(8);
  view.objects.resize(8);
  for (edm::OsdId i = 0; i < 8; ++i) {
    view.devices[i].id = i;
    view.devices[i].capacity_pages = 10000;
    view.devices[i].free_pages = 5000;
    view.devices[i].utilization = 0.5;
    view.devices[i].write_pages = 1000 * (i + 1);
  }
  (void)timed.plan(view, /*force=*/true);

  EXPECT_DOUBLE_EQ(inner->config().model.sigma(), 0.41);
  ASSERT_NE(recorder.metrics(), nullptr);
  EXPECT_EQ(recorder.metrics()->counter("policy.plans")->value(), 1u);
  EXPECT_EQ(timed.call_ms().size(), 1u);
  EXPECT_STREQ(timed.name(), inner->name());
  EXPECT_EQ(timed.blocks_foreground(), inner->blocks_foreground());
}

TEST(TimedPolicy, ReplayIsUnchangedByTheDecorator) {
  // Adaptive sigma and policy telemetry are both on in write-monitor: a
  // decorator that dropped either would change the fingerprint or the
  // telemetry digest.
  const Workload w = make_workload("write-monitor", kTinyScale, 3);
  const CellRun plain = run_cell(w);
  CellOptions traced;
  traced.traced = true;
  const CellRun timed = run_cell(w, traced);
  EXPECT_GT(timed.plan_ms.size(), 1u);
  EXPECT_EQ(fingerprint(timed.result), fingerprint(plain.result));
  EXPECT_FALSE(plain.telemetry_digest.empty());
  EXPECT_EQ(timed.telemetry_digest, plain.telemetry_digest);
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, PlainRunPrintsEveryEndToEndMetric) {
  const Report report =
      run_plain(input_set(GetParam(), kTinyScale, 1, 2), kOnePass);
  EXPECT_TRUE(report.correct()) << ::testing::PrintToString(report.failures);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.attempted, 0u);
  const std::set<std::string> printed = printed_names(report);
  for (const std::string& name : manifest_names("end_to_end")) {
    EXPECT_TRUE(printed.count(name)) << name;
    EXPECT_GT(metric(report, name), 0.0) << name;
  }
  // Beside the metrics: the host speed and the unscaled timings of at
  // least one timed pass over both inputs.
  double timed_cells = 0.0;
  for (const Metric& m : report.diagnostics) {
    EXPECT_GT(m.value, 0.0) << m.name;
    if (m.name == "timed_cells") timed_cells = m.value;
  }
  EXPECT_GE(timed_cells, 2.0);
}

TEST_P(EveryWorkload, TracedRunPrintsEveryPerLayerMetric) {
  const Report report =
      run_traced(make_workload(GetParam(), kTinyScale, 1), kOnePass, nullptr);
  EXPECT_TRUE(report.correct()) << ::testing::PrintToString(report.failures);
  const std::set<std::string> printed = printed_names(report);
  for (const std::string& name : manifest_names("per_layer")) {
    EXPECT_TRUE(printed.count(name)) << name;
  }
  const double plan_calls = metric(report, "core.plan_calls");
  if (GetParam() == "read-midpoint") {
    EXPECT_EQ(plan_calls, 1.0);
  } else if (GetParam() == "write-monitor") {
    EXPECT_GT(plan_calls, 1.0);
  } else {
    EXPECT_EQ(plan_calls, 0.0);
  }
}

TEST_P(EveryWorkload, FingerprintRepeatsAndMatchesRunExperiment) {
  const Workload w = make_workload(GetParam(), kTinyScale, 7);
  const std::string first = fingerprint(run_cell(w).result);
  EXPECT_EQ(fingerprint(run_cell(w).result), first);
  const edm::sim::RunResult ref =
      w.source == Source::kStreaming
          ? edm::sim::run_experiment_streaming(w.config)
          : edm::sim::run_experiment(w.config);
  EXPECT_EQ(fingerprint(ref), first);
  // The seed reaches the generated inputs.
  EXPECT_NE(fingerprint(run_cell(make_workload(GetParam(), kTinyScale, 8))
                            .result),
            first);
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& param) {
                           std::string name = param.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Workloads, TracedWriteMonitorMatchesUntraced) {
  const Workload w = make_workload("write-monitor", kTinyScale, 5);
  const Report plain = run_plain({w}, kOnePass);
  const Report traced = run_traced(w, kOnePass, nullptr);
  EXPECT_TRUE(traced.correct()) << ::testing::PrintToString(traced.failures);
  EXPECT_EQ(traced.fingerprint, plain.fingerprint);
  EXPECT_FALSE(plain.telemetry_digest.empty());
  EXPECT_EQ(traced.telemetry_digest, plain.telemetry_digest);
}

TEST(HostSpeedProbe, ScalesToTheReferenceSpeed) {
  HostSpeedProbe probe;
  EXPECT_GT(probe.measure(), 0.0);
  EXPECT_DOUBLE_EQ(host_speed(HostSpeedProbe::kReferenceS), 1.0);
  EXPECT_DOUBLE_EQ(host_speed(2.0 * HostSpeedProbe::kReferenceS), 0.5);
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(make_workload("no-such-workload", 0.0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
