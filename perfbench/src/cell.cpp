#include "cell.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>

#include "cluster/cluster.h"
#include "core/sigma_estimator.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "timed_policy.h"
#include "trace/cursor.h"
#include "trace/generator.h"
#include "workload/tenant.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using edm::sim::ExperimentConfig;

/// FNV-1a 64-bit hash of `text`, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host milliseconds of `fn`, median of three calls.
template <typename Fn>
double median_call_ms(Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) ms.push_back(1e3 * timed(nullptr, "", 0, fn));
  return median(ms);
}

/// Fraction of the replayed cluster's non-empty objects whose fast-extent
/// entry still serves them (moves and rebuilds retire entries).
double fast_path_fraction(const edm::cluster::Cluster& cluster) {
  std::uint64_t objects = 0;
  std::uint64_t fast = 0;
  for (edm::ObjectId oid = 0; oid < cluster.object_count(); ++oid) {
    const edm::OsdId home = cluster.locate(oid);
    if (cluster.osd(home).object_pages(oid) == 0) continue;
    ++objects;
    const auto& fe = cluster.fast_extent(oid);
    if (fe.pages != 0 && fe.osd == home) ++fast;
  }
  return objects ? static_cast<double>(fast) / static_cast<double>(objects)
                 : 0.0;
}

/// Host milliseconds the run's SigmaEstimator::estimate() calls took, one
/// per plan() call: each call is re-timed holding as many observations as
/// the run's estimator held then -- one per OSD per epoch tick before the
/// call (`call_sim_us`; 0 = unknown, counted as the end of the run), up to
/// the estimator's window.  The values are the run's per-OSD averages; the
/// fit's cost depends on their count, not on them.
double sigma_fit_ms(const ExperimentConfig& cfg,
                    const edm::sim::RunResult& result,
                    std::vector<edm::SimTime> call_sim_us) {
  const std::size_t window = 4096;  // SigmaEstimator's default capacity
  const auto epoch =
      std::max<edm::SimDuration>(1, cfg.sim.epoch_length_us);
  const std::size_t osds = result.per_osd.size();
  const double run_ticks = static_cast<double>(
      std::max<std::uint64_t>(1, result.makespan_us / epoch));
  edm::core::SigmaEstimator estimator(cfg.flash.pages_per_block,
                                      cfg.policy_config.model.sigma(), window);
  std::size_t fed = 0;
  double total_ms = 0.0;
  std::sort(call_sim_us.begin(), call_sim_us.end());
  for (const edm::SimTime t : call_sim_us) {
    const std::uint64_t ticks = (t ? t : result.makespan_us) / epoch;
    const auto count =
        static_cast<std::size_t>(std::min<std::uint64_t>(window, ticks * osds));
    for (; fed < count; ++fed) {
      const auto& osd = result.per_osd[fed % osds];
      const double jitter = 1.0 + 0.01 * static_cast<double>(fed % 7);
      estimator.observe(
          (1.0 + static_cast<double>(osd.flash.host_page_writes)) / run_ticks *
              jitter,
          osd.utilization,
          (1.0 + static_cast<double>(osd.flash.erase_count)) / run_ticks);
    }
    // The Simulator refits only once the estimator has enough samples.
    if (estimator.observations() < estimator.min_observations()) continue;
    total_ms += median_call_ms([&] {
      volatile double sigma = estimator.estimate();
      (void)sigma;
    });
  }
  return total_ms;
}

const std::vector<edm::trace::FileSpec>& files_of(const edm::trace::Trace& t) {
  return t.files;
}
template <typename Source>
const std::vector<edm::trace::FileSpec>& files_of(const Source& source) {
  return source.files();
}

/// The cell body for any record source; `source` is whatever the workload's
/// Simulator constructor takes.  `make_source` builds it (timed as the
/// trace-source step) and `count_source` counts its records afterwards.
template <typename MakeSource, typename CountSource>
CellRun run_with(const Workload& workload, const CellOptions& opt,
                 MakeSource&& make_source, CountSource&& count_source) {
  CellRun out;
  StepTimes& t = out.times;
  SpanLog* spans = opt.spans;
  const int cell_span = spans ? spans->open("cell." + workload.name) : 0;
  const auto setup_start = Clock::now();

  const ExperimentConfig cfg = edm::sim::finalize(workload.config);
  decltype(make_source(cfg)) source;
  t.source_s = timed(spans, "trace.source", cell_span,
                     [&] { source = make_source(cfg); });

  std::unique_ptr<edm::cluster::Cluster> cluster;
  t.build_s = timed(spans, "cluster.build", cell_span, [&] {
    cluster = std::make_unique<edm::cluster::Cluster>(cluster_config_for(cfg),
                                                      files_of(*source));
  });
  t.populate_s = timed(spans, "cluster.populate", cell_span,
                       [&] { cluster->populate(); });
  t.warmup_s = timed(spans, "flash.warmup", cell_span,
                     [&] { cluster->steady_state_warmup(); });
  timed(spans, "flash.reset", cell_span, [&] { cluster->reset_flash_stats(); });

  auto policy = edm::core::make_policy(cfg.policy, cfg.policy_config);
  std::unique_ptr<TimedPolicy> timed_policy;
  edm::core::MigrationPolicy* replay_policy = policy.get();
  if (opt.traced && policy) {
    timed_policy = std::make_unique<TimedPolicy>(*policy, spans);
    replay_policy = timed_policy.get();
  }
  edm::sim::SimConfig sim_cfg = cfg.sim;
  if (cfg.policy == edm::core::PolicyKind::kNone) {
    sim_cfg.trigger = edm::sim::MigrationTrigger::kNone;
  }
  std::shared_ptr<edm::telemetry::Recorder> recorder;
  if (opt.telemetry && cfg.telemetry.any()) {
    recorder = std::make_shared<edm::telemetry::Recorder>(cfg.telemetry);
    sim_cfg.recorder = recorder.get();
  }
  std::unique_ptr<edm::sim::Simulator> simulator;
  t.ctor_s = timed(spans, "sim.ctor", cell_span, [&] {
    simulator = std::make_unique<edm::sim::Simulator>(sim_cfg, *cluster,
                                                      *source, replay_policy);
  });

  const auto replay_start = Clock::now();
  t.setup_s = seconds_between(setup_start, replay_start);
  const int replay_span = spans ? spans->open("sim.run", cell_span) : 0;
  if (timed_policy) timed_policy->set_parent_span(replay_span);
  out.result = simulator->run();
  t.replay_s = seconds_between(replay_start, Clock::now());
  if (spans) spans->close(replay_span);

  if (timed_policy) out.plan_ms = timed_policy->call_ms();
  if (recorder) out.telemetry_digest = telemetry_digest(*recorder);
  if (opt.traced) {
    const int probe = spans ? spans->open("probe", cell_span) : 0;
    out.view_ms = median_call_ms([&] { (void)simulator->build_view(); });
    if (cfg.sim.adaptive_sigma && timed_policy) {
      out.sigma_fit_ms =
          sigma_fit_ms(cfg, out.result, timed_policy->call_sim_us());
    }
    out.fast_path_frac = fast_path_fraction(*cluster);
    if (spans) spans->close(probe);
  }
  if (spans) spans->close(cell_span);
  out.attempted =
      opt.known_records ? opt.known_records : count_source(*source);
  return out;
}

}  // namespace

CellRun run_cell(const Workload& workload, const CellOptions& options) {
  switch (workload.source) {
    case Source::kMaterialised:
      return run_with(
          workload, options,
          [](const ExperimentConfig& cfg) {
            return std::make_unique<edm::trace::Trace>(
                edm::trace::TraceGenerator(profile_for(cfg), cfg.num_clients)
                    .generate());
          },
          [](const edm::trace::Trace& trace) {
            return static_cast<std::uint64_t>(trace.records.size());
          });
    case Source::kStreaming:
      return run_with(
          workload, options,
          [](const ExperimentConfig& cfg) {
            return std::make_unique<edm::trace::TraceCursor>(profile_for(cfg),
                                                             cfg.num_clients);
          },
          [](edm::trace::TraceCursor& cursor) {
            return cursor.total_records();
          });
    case Source::kOpenLoop:
      return run_with(
          workload, options,
          [](const ExperimentConfig& cfg) {
            return std::make_unique<edm::workload::OpenLoopSource>(
                cfg.open_loop, cfg.num_clients, cfg.trace_seed_offset);
          },
          [](edm::workload::OpenLoopSource& arrivals) {
            return arrivals.total_records();
          });
  }
  return {};
}

std::string telemetry_digest(const edm::telemetry::Recorder& recorder) {
  std::ostringstream os;
  os.precision(17);
  if (const auto* metrics = recorder.metrics()) {
    metrics->for_each_counter([&](const std::string& name, const auto& c) {
      os << "c " << name << ' ' << c.value() << '\n';
    });
    metrics->for_each_gauge([&](const std::string& name, const auto& g) {
      os << "g " << name << ' ' << g.value() << '\n';
    });
    metrics->for_each_histogram([&](const std::string& name, const auto& h) {
      const auto& s = h.snapshot();
      os << "h " << name << ' ' << s.count() << ' ' << s.mean() << ' '
         << s.max() << ' ' << s.quantile(0.5) << ' ' << s.quantile(0.99)
         << '\n';
    });
  }
  if (const auto* sampler = recorder.sampler()) sampler->write_csv(os);
  return digest(os.str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string fingerprint(const edm::sim::RunResult& r) {
  std::ostringstream os;
  os << "events " << r.perf.events_processed << "\nops " << r.completed_ops
     << "\nmakespan " << r.makespan_us << "\nmoved "
     << r.migration.moved_objects << "\np99 "
     << static_cast<std::uint64_t>(r.response_histogram.quantile(0.99))
     << '\n';
  for (const auto& osd : r.per_osd) {
    os << "osd " << osd.flash.erase_count << ' ' << osd.flash.host_page_writes
       << '\n';
  }
  return digest(os.str());
}

std::vector<std::string> check_outputs(const Workload& workload,
                                       const CellRun& run) {
  std::vector<std::string> failures;
  const edm::sim::RunResult& r = run.result;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(workload.name + ": " + what);
  };
  expect(run.attempted > 0, "the source offered no operations");
  // Every op completes: degraded ops finish as lost writes / unavailable
  // reads inside the completion count, so none may be missing.
  expect(r.completed_ops == run.attempted,
         "completed ops " + std::to_string(r.completed_ops) +
             " != attempted " + std::to_string(run.attempted));
  if (workload.source == Source::kOpenLoop) {
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    for (const auto& tenant : r.workload.tenants) {
      arrivals += tenant.arrivals;
      completions += tenant.completed_ops;
    }
    expect(r.workload.arrivals == run.attempted,
           "arrivals " + std::to_string(r.workload.arrivals) +
               " != source records " + std::to_string(run.attempted));
    expect(arrivals == r.workload.arrivals && completions == arrivals,
           "tenant arrivals " + std::to_string(arrivals) +
               " / completions " + std::to_string(completions) +
               " do not balance");
  }
  expect(r.faults.abandoned_requests == 0,
         std::to_string(r.faults.abandoned_requests) + " abandoned requests");
  expect(r.migration.moved_objects <=
             r.migration.planned_objects + r.health.drain_planned,
         "moved more objects than were planned");
  return failures;
}

}  // namespace perfbench
