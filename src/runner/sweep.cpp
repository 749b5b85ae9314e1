#include "runner/sweep.h"

#include <cstdio>
#include <fstream>

#include "runner/progress.h"
#include "runner/seed.h"
#include "util/thread_pool.h"

namespace edm::runner {

std::string indexed_path(const std::string& path, std::size_t index,
                         std::size_t total) {
  if (total <= 1) return path;
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  const std::string suffix = "-" + std::to_string(index);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

void apply_telemetry(sim::ExperimentConfig& cfg, const TelemetrySinks& sinks) {
  if (!sinks.trace_out.empty()) {
    cfg.telemetry.trace_enabled = true;
    cfg.telemetry.metrics_enabled = true;
  }
  if (!sinks.timeseries_out.empty()) {
    cfg.telemetry.sample_interval_us =
        static_cast<SimDuration>(sinks.sample_interval_s * 1e6);
  }
}

void apply_seed_derivation(std::vector<sim::ExperimentConfig>& cells,
                           std::uint64_t base_seed) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].trace_seed_offset = derive_seed(base_seed, i);
  }
}

void write_run_outputs(const sim::RunResult& result,
                       const TelemetrySinks& sinks, std::size_t index,
                       std::size_t total) {
  const auto& tel = result.telemetry;
  if (tel == nullptr) return;
  if (const auto* tracer = tel->tracer();
      tracer != nullptr && !sinks.trace_out.empty()) {
    if (tracer->dropped() > 0) {
      std::fprintf(stderr,
                   "[edm WARN ] trace for run %zu dropped %llu events "
                   "(cap %zu)\n",
                   index, static_cast<unsigned long long>(tracer->dropped()),
                   telemetry::kMaxTraceEvents);
    }
    const std::string path = indexed_path(sinks.trace_out, index, total);
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "[edm WARN ] cannot write trace file %s\n",
                   path.c_str());
    } else {
      tracer->write_chrome_json(os);
    }
  }
  if (const auto* sampler = tel->sampler();
      sampler != nullptr && !sinks.timeseries_out.empty()) {
    const std::string path = indexed_path(sinks.timeseries_out, index, total);
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "[edm WARN ] cannot write time-series file %s\n",
                   path.c_str());
    } else {
      sampler->write_csv(os);
    }
  }
}

void write_sweep_outputs(const std::vector<sim::RunResult>& results,
                         const TelemetrySinks& sinks) {
  if (!sinks.any()) return;
  for (std::size_t i = 0; i < results.size(); ++i) {
    write_run_outputs(results[i], sinks, i, results.size());
  }
}

namespace detail {

void run_indexed(std::size_t n, std::size_t jobs, const std::string& label,
                 std::ostream* progress,
                 const std::function<void(std::size_t)>& fn) {
  Progress meter(progress, label, n);
  if (n == 0) return;
  if (jobs == 1) {
    // Serial fast path: no pool, no futures -- exactly the pre-runner
    // execution shape.  An exception surfaces at its own index, which is
    // necessarily the lowest failed one.
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
      meter.note_done();
    }
  } else {
    util::ThreadPool pool(jobs);
    // parallel_for runs every index to completion and rethrows the
    // lowest-index exception (see util/thread_pool.h).
    pool.parallel_for(n, [&](std::size_t i) {
      fn(i);
      meter.note_done();
    });
  }
  meter.finish();
}

}  // namespace detail

std::vector<sim::RunResult> run_sweep(std::vector<sim::ExperimentConfig> cells,
                                      const SweepOptions& opt) {
  for (auto& cfg : cells) apply_telemetry(cfg, opt.sinks);
  if (opt.derive_seeds) apply_seed_derivation(cells, opt.base_seed);
  auto results = parallel_map<sim::RunResult>(
      cells.size(), [&](std::size_t i) { return sim::run_experiment(cells[i]); },
      opt);
  write_sweep_outputs(results, opt.sinks);
  return results;
}

}  // namespace edm::runner
