// The paper's evaluation (Table I, Figs. 1, 3 and 5-8), its ablations and
// the extension tables, as one catalogue of experiments.
//
// Most entries are a cell grid plus a row formatter: the grid runs on the
// sweep runner and its results fill one table.  The rest have a body that
// drives the lower layers (trace generator, wear probe, single SSD,
// cluster, shared-trace fault replays, multi-phase sweeps) directly; three
// ablations put a single-device body in front of their grid.
// EXPERIMENTS.md compares each table with the paper.
//
//   ./build/bench/experiments --experiment=<name> [--experiment=<name>...]
//       [--scale=0.1] [--csv] [--jobs=N] [--no-progress] [--out=<path>]
//       [--trace-out=<path>] [--timeseries-out=<path>] [--sample-interval=<s>]
//
// <name> is an entry below or `all` (every entry, in EXPERIMENTS.md
// order).  --out writes one JSON document (schema edm-experiments/1):
// provenance, then per experiment its name, scale and every table it
// printed, cell for cell as printed.  Telemetry outputs take one
// experiment at a time: per-cell file indexes would collide across
// experiments.
#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/cluster.h"
#include "core/balance.h"
#include "core/lifetime.h"
#include "core/policy.h"
#include "core/wear_model.h"
#include "flash/ssd.h"
#include "sim/simulator.h"
#include "sim/wear_probe.h"
#include "trace/analysis.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "util/provenance.h"
#include "util/rng.h"
#include "util/stats.h"

namespace edm::bench {
namespace {

using core::PolicyKind;
using sim::RunResult;
using util::Table;
using Cells = std::vector<sim::ExperimentConfig>;
using Results = std::vector<RunResult>;

struct Args : BenchArgs {
  std::vector<std::string> experiments;
  bool scale_given = false;  // --scale was on the command line
  std::string out;           // --out: the JSON document's path
};

// Fields an entry leaves out stay empty; their `{}` initializers keep
// -Wextra quiet about designated initializers that skip them.
struct Experiment {
  std::string name;
  std::string title;  // of the grid's table, or of a body's first table
  std::string note{};  // shape note printed under that table
  double scale = 0;    // the scale without --scale; 0 = the driver's default

  // A cell-grid entry: the cells at a scale, then the table's columns and
  // a row formatter over the cells and their results in grid order.
  // `then` prints what follows that table.
  std::function<Cells(double scale)> cells{};
  std::vector<std::string> columns{};
  std::function<void(Table&, const Cells&, const Results&)> rows{};
  std::function<void(const Args&, const Cells&, const Results&)> then{};

  // A body entry drives the lower layers itself and prints its tables.
  // Beside a grid, the body prints the single-device half first.
  std::function<void(const Args&, const Experiment&)> body{};
};

// ---- Shared by several entries -------------------------------------------

/// Prints a table that follows an entry's main one under a heading line,
/// in text mode only; --out records it in either mode.
void aside(const Table& table, const Args& args, const std::string& heading) {
  if (args.emitted) args.emitted->push_back({heading, table, ""});
  if (args.csv) return;
  std::cout << '\n' << heading << ":\n";
  table.print(std::cout);
}

/// The four systems of the paper's evaluation, in presentation order.
const std::vector<PolicyKind> kSystems = {PolicyKind::kNone, PolicyKind::kCmt,
                                          PolicyKind::kHdf, PolicyKind::kCdf};
const std::vector<PolicyKind> kBaselineHdf = {PolicyKind::kNone,
                                              PolicyKind::kHdf};

/// Table I workload names in paper order.
const std::vector<std::string> kTraces = {
    "home02", "home03", "home04", "deasna", "deasna2", "lair62", "lair62b"};

/// Every trace under every system at each OSD count; systems vary fastest.
Cells grid(const std::vector<std::string>& traces,
           const std::vector<PolicyKind>& systems,
           const std::vector<std::uint32_t>& osds, double scale) {
  Cells cells;
  for (auto n : osds) {
    for (const auto& trace : traces) {
      for (auto policy : systems) {
        cells.push_back(cell(trace, policy, n, scale));
      }
    }
  }
  return cells;
}

/// Figs. 5 and 6: all seven traces under the four systems at 16 and 20
/// OSDs (56 cells).
Cells paper_grid(double scale) {
  return grid(kTraces, kSystems, {16, 20}, scale);
}

/// The ablations' subject: lair62 on 16 OSDs under `systems`.
Cells lair62(const std::vector<PolicyKind>& systems, double scale) {
  return grid({"lair62"}, systems, {16}, scale);
}

/// `cells` once per value of a new, slowest-varying axis; set(cell, value)
/// adjusts each copy.
template <typename T, typename Set>
Cells vary(const Cells& cells, const std::vector<T>& values, Set set) {
  Cells out;
  for (const T& value : values) {
    for (auto c : cells) {
      set(c, value);
      out.push_back(c);
    }
  }
  return out;
}

/// In a grid whose systems are kSystems, result i's run under
/// kSystems[k] (0 = the baseline, 1 = CMT): what a "vs" column compares to.
const RunResult& same_group(const Results& rs, std::size_t i, std::size_t k) {
  return rs[i - i % kSystems.size() + k];
}

// The recurring RunResult columns.
double ops(const RunResult& r) { return r.throughput_ops_per_sec(); }
std::string throughput(const RunResult& r) { return Table::num(ops(r), 0); }
std::string mean_rt(const RunResult& r) {
  return Table::num(r.mean_response_us / 1000.0, 2);
}
std::string erases(const RunResult& r) {
  return Table::num(r.aggregate_erases());
}
std::string erase_rsd(const RunResult& r) {
  return Table::num(r.erase_rsd(), 3);
}
std::string moved(const RunResult& r) {
  return Table::num(r.migration.moved_objects);
}
std::string vs(double value, double reference) {
  return Table::pct((value - reference) / reference);
}
/// Quantile q of a response-time histogram, in milliseconds.
std::string ms(const util::LogHistogram& histogram, double q) {
  return Table::num(histogram.quantile(q) / 1000.0, 2);
}

/// A single-device wear probe of `workload` at utilization u on a 256 MB
/// device (fast yet GC-realistic).
struct Probe {
  std::string workload;
  sim::WearProbeConfig cfg;
};
Probe probe(const std::string& workload, double u) {
  Probe p{workload, {}};
  p.cfg.flash.num_blocks = 2048;
  p.cfg.utilization = u;
  return p;
}
std::vector<sim::WearProbeResult> run_probes(const std::vector<Probe>& probes,
                                             const Args& args,
                                             const std::string& label) {
  return runner::parallel_map<sim::WearProbeResult>(
      probes.size(),
      [&](std::size_t i) {
        return sim::run_wear_probe(trace::profile_by_name(probes[i].workload),
                                   probes[i].cfg);
      },
      sweep_options(args, label));
}

/// Replays `clean` (telemetry flags applied), then the configs
/// `faulted(base, clean result)` derives from its finalized config, all on
/// one shared trace so that a schedule taken from the clean makespan lines
/// up across runs.  Returns the clean result, then the faulted ones.
Results replay_faulted(
    sim::ExperimentConfig clean, const Args& args, const std::string& label,
    const std::function<Cells(const sim::ExperimentConfig&,
                              const RunResult&)>& faulted) {
  apply_telemetry(clean, args);
  const auto base = sim::finalize(clean);
  // The trace run_experiment(base) would generate, made once.
  auto profile = trace::profile_by_name(base.trace_name).scaled(base.scale);
  profile.seed ^= base.trace_seed_offset;
  const auto trace =
      trace::TraceGenerator(profile, base.num_clients).generate();
  Results results = {sim::run_experiment(base, trace)};
  const Cells cells = faulted(base, results.front());
  const auto rest = runner::parallel_map<RunResult>(
      cells.size(),
      [&](std::size_t i) { return sim::run_experiment(cells[i], trace); },
      sweep_options(args, label));
  results.insert(results.end(), rest.begin(), rest.end());
  return results;
}

// ---- Used by one entry each ----------------------------------------------

const std::vector<double> kSigmas = {0.0, 0.10, 0.20, 0.28, 0.40};

struct DesyncVariant {
  const char* label;
  std::vector<std::uint32_t> sizes;
};
const std::vector<DesyncVariant> kDesyncVariants = {
    {"equal {4,4,4,4}", {4, 4, 4, 4}},
    {"weighted {2,3,5,6}", {2, 3, 5, 6}},
};

struct GroupWear {
  double mean_erases = 0;  // per SSD of the group
  double wearout_s = 0;    // projected wear-out of the group's devices
};

/// ext_wear_desync: per-group mean erase rate -> projected wear-out of that
/// group's devices (they wear together: that is the point).
std::vector<GroupWear> group_wear(const RunResult& r,
                                  const std::vector<std::uint32_t>& sizes) {
  const core::EnduranceModel endurance;
  const double seconds = static_cast<double>(r.makespan_us) / 1e6;
  std::vector<GroupWear> out;
  std::uint32_t osd = 0;
  for (auto size : sizes) {
    double total = 0;
    for (std::uint32_t i = 0; i < size; ++i, ++osd) {
      total += static_cast<double>(r.per_osd[osd].flash.erase_count);
    }
    const double mean = total / size;
    const double rate = mean / seconds;
    out.push_back(
        {mean, rate > 0 ? endurance.total_erase_budget() / rate : 0.0});
  }
  return out;
}

struct GcOutcome {
  double wa = 0.0;
  double measured_ur = 0.0;
  std::uint64_t erases = 0;
  flash::Ssd::BlockWear wear;
};

/// ablation_gc_policy: six device-capacities of writes at u = 0.70, a
/// `hot_bias` share of them to the hottest 10% of pages.
GcOutcome gc_churn(flash::FlashConfig::GcPolicy policy, double hot_bias) {
  flash::FlashConfig cfg;
  cfg.num_blocks = 2048;
  cfg.pages_per_block = 32;
  cfg.gc_policy = policy;
  flash::Ssd ssd(cfg);
  util::Xoshiro256 rng(42);
  const auto valid =
      static_cast<Lpn>(0.7 * static_cast<double>(cfg.physical_pages()));
  for (Lpn p = 0; p < valid; ++p) ssd.write(p);
  const auto hot = static_cast<Lpn>(valid / 10);
  const std::uint64_t writes = 6ull * cfg.physical_pages();
  for (std::uint64_t i = 0; i < writes; ++i) {
    const bool is_hot = rng.next_double() < hot_bias;
    ssd.write(static_cast<Lpn>(is_hot ? rng.next_below(hot)
                                      : hot + rng.next_below(valid - hot)));
  }
  return {ssd.stats().write_amplification(), ssd.stats().measured_ur(32),
          ssd.stats().erase_count, ssd.block_wear()};
}

/// ext_reliability: failure patterns (OSDs 2, 6 and 10 share a group; 3 is
/// in the next one).
const std::vector<std::pair<const char*, std::vector<OsdId>>> kFailures = {
    {"1 OSD down", {2}},
    {"2 down, same group", {2, 6}},
    {"3 down, same group", {2, 6, 10}},
    {"2 down, cross-group", {2, 3}},
};

/// Files each kFailures pattern leaves unavailable.
std::vector<std::uint64_t> unavailable_files(cluster::Cluster& cluster) {
  std::vector<std::uint64_t> lost;
  for (const auto& [label, osds] : kFailures) {
    for (auto id : osds) cluster.fail_osd(id);
    lost.push_back(cluster.count_unavailable_files());
    for (auto id : osds) cluster.osd(id).set_failed(false);
  }
  return lost;
}

/// ext_failslow: "3+7" for OSDs {3, 7}, "-" for none.
std::string osd_list(const std::vector<std::uint32_t>& osds) {
  std::string out;
  for (auto osd : osds) out += (out.empty() ? "" : "+") + std::to_string(osd);
  return out.empty() ? "-" : out;
}

/// ext_parallelism: the paper's flat device, a SATA-class and an NVMe-class
/// geometry (channels x dies per channel x planes per die) with their
/// per-channel bus delays in microseconds, each at every OSD queue depth.
struct Geometry {
  const char* name;
  flash::FlashGeometry geom;
  SimDuration bus_ctrl_us = 0;
  SimDuration bus_data_us = 0;
};
const std::vector<Geometry> kGeometries = {
    {"flat", {1, 1, 1}, 0, 0},
    {"sata", {4, 2, 1}, 5, 40},
    {"nvme", {8, 4, 2}, 2, 10},
};
const std::vector<std::uint32_t> kDepths = {1, 2, 4, 8};

// ---- The catalogue, in EXPERIMENTS.md order --------------------------------

const std::vector<Experiment> kCatalogue = {
    // Table I: the synthetic workloads against the paper's statistics.
    // Counts are exact by construction; mean sizes are sampled.
    {.name = "table1_workloads",
     .title = "Table I -- workload characteristics",
     .note = "Cells are 'generated / paper target'; counts match exactly, "
             "mean sizes within sampling noise.",
     .body = [](const Args& args, const Experiment& self) {
       const auto target = [&](std::size_t i) {
         return trace::profile_by_name(kTraces[i]).scaled(args.scale);
       };
       struct Workload {
         trace::TraceCharacteristics got;
         trace::SkewAnalysis skew;
         std::uint64_t total_bytes = 0;
       };
       const auto rows = runner::parallel_map<Workload>(
           kTraces.size(),
           [&](std::size_t i) {
             const auto trace = trace::TraceGenerator(target(i), 8).generate();
             return Workload{trace::characterize(trace),
                             trace::analyze_skew(trace),
                             trace.total_file_bytes()};
           },
           sweep_options(args, self.name));

       Table table({"workload", "file_cnt", "write_cnt", "avg_write_size(B)",
                    "read_cnt", "avg_read_size(B)", "dataset(MiB)"});
       const auto pair = [](const std::string& generated, std::uint64_t paper) {
         return generated + " / " + Table::num(paper);
       };
       for (std::size_t i = 0; i < rows.size(); ++i) {
         const auto& got = rows[i].got;
         const auto t = target(i);
         table.add_row({kTraces[i],
                        pair(Table::num(got.file_count), t.file_count),
                        pair(Table::num(got.write_count), t.write_count),
                        pair(Table::num(got.avg_write_size, 0),
                             t.avg_write_size),
                        pair(Table::num(got.read_count), t.read_count),
                        pair(Table::num(got.avg_read_size, 0), t.avg_read_size),
                        Table::num(rows[i].total_bytes >> 20)});
       }
       emit(table, args, self.title, self.note);
       Table skew({"workload", "write_top10%", "write_gini", "rewrite_ratio",
                   "sequential", "rw_rank_corr", "max_file/mean"});
       for (std::size_t i = 0; i < rows.size(); ++i) {
         const auto& s = rows[i].skew;
         skew.add_row({kTraces[i], Table::pct(s.write_top10_share, 0),
                       Table::num(s.write_gini, 2),
                       Table::num(s.write_rewrite_ratio, 2),
                       Table::num(s.sequential_ratio, 2),
                       Table::num(s.read_write_correlation, 2),
                       Table::num(s.size_max_over_mean, 0)});
       }
       aside(skew, args, "Skew & locality (the statistics behind Figs. 1/3)");
     }},

    // Fig. 1: per-SSD erase count and write pages on the baseline -- the
    // wear-variance motivation (paper SII).  Devices with more written
    // pages tend to erase more, "but not exclusively".
    {.name = "fig1_wear_variance",
     .title = "Fig. 1 -- per-SSD erase count and write pages (baseline)",
     .cells = [](double s) {
       return grid({"home02", "deasna", "lair62"}, {PolicyKind::kNone}, {16},
                   s);
     },
     .columns = {"trace", "osd", "erase_count", "write_pages", "gc_moves",
                 "utilization", "measured_ur"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       for (const auto& r : rs) {
         for (std::uint32_t i = 0; i < r.per_osd.size(); ++i) {
           const auto& o = r.per_osd[i];
           t.add_row({r.trace_name, std::to_string(i),
                      Table::num(o.flash.erase_count),
                      Table::num(o.flash.host_page_writes),
                      Table::num(o.flash.gc_page_moves),
                      Table::num(o.utilization, 3),
                      Table::num(o.flash.measured_ur(32), 3)});
         }
       }
     },
     .then = [](const Args& args, const Cells&, const Results& rs) {
       Table summary(
           {"trace", "erase_RSD", "write_page_RSD", "max/min erases"});
       for (const auto& r : rs) {
         util::StreamingStats counts;
         util::StreamingStats writes;
         for (const auto& o : r.per_osd) {
           counts.add(static_cast<double>(o.flash.erase_count));
           writes.add(static_cast<double>(o.flash.host_page_writes));
         }
         summary.add_row(
             {r.trace_name, Table::num(counts.rsd(), 3),
              Table::num(writes.rsd(), 3),
              Table::num(
                  counts.min() > 0 ? counts.max() / counts.min() : 0.0, 1)});
       }
       aside(summary, args,
             "Wear-variance summary (relative standard deviation)");
     }},

    // Fig. 3: measured vs estimated victim valid ratio u_r over disk
    // utilization u, one device per point.
    {.name = "fig3_wear_model",
     .title = "Fig. 3 -- measured vs estimated u_r (victim valid ratio)",
     .note = "Shape check: 'random' should track eq2_ur; the skewed "
             "workloads should fall below eq2_ur toward eq3_ur.",
     .body = [](const Args& args, const Experiment& self) {
       std::vector<Probe> probes;
       for (const char* w : {"home02", "deasna", "lair62", "random"}) {
         for (double u : {0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}) {
           probes.push_back(probe(w, u));
         }
       }
       const auto results = run_probes(probes, args, self.name);
       Table table({"workload", "u", "measured_ur", "eq2_ur(sigma=0)",
                    "eq3_ur(sigma=0.28)", "erases", "WA"});
       for (std::size_t i = 0; i < probes.size(); ++i) {
         const auto& r = results[i];
         table.add_row({probes[i].workload, Table::num(r.utilization, 3),
                        Table::num(r.measured_ur, 3), Table::num(r.eq2_ur, 3),
                        Table::num(r.eq3_ur, 3), Table::num(r.erases),
                        Table::num(r.write_amplification, 2)});
       }
       emit(table, args, self.title, self.note);
     }},

    // Fig. 5: aggregate throughput of the four systems (paper SV.B).
    {.name = "fig5_throughput",
     .title = "Fig. 5 -- aggregate throughput",
     .note = "Shape check: at 16 OSDs HDF beats baseline on every trace, most "
             "on the write-skewed lair traces; CMT matches it only on lair62 "
             "and falls below baseline on deasna2; CDF stays within 2% of "
             "baseline, on either side.  At 20 OSDs the gains are smaller on "
             "most traces and deasna loses under every policy.",
     .cells = paper_grid,
     .columns = {"osds", "trace", "system", "throughput(ops/s)", "vs_baseline",
                 "mean_rt(ms)"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         const auto& r = rs[i];
         t.add_row({std::to_string(r.num_osds), r.trace_name, r.policy_name,
                    throughput(r), vs(ops(r), ops(same_group(rs, i, 0))),
                    mean_rt(r)});
       }
     }},

    // Fig. 6: cluster-wide aggregate erases on the Fig. 5 grid, against
    // the baseline and CMT (the numbers above the paper's bars, SV.C).
    {.name = "fig6_erase_count",
     .title = "Fig. 6 -- cluster-wide aggregate erase count",
     .note = "Shape check: HDF stays within 1% of baseline on erases and "
             "below CMT on every trace (its vs_CMT column is the paper's "
             "headline saving); CDF adds erases everywhere, CMT on all but "
             "deasna2 at 20 OSDs; erase_RSD shows the wear balance each "
             "policy achieves, HDF's below baseline's everywhere.",
     .cells = paper_grid,
     .columns = {"osds", "trace", "system", "aggregate_erases", "vs_baseline",
                 "vs_CMT", "erase_RSD", "migration_pages"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       const auto count = [](const RunResult& r) {
         return static_cast<double>(r.aggregate_erases());
       };
       for (std::size_t i = 0; i < rs.size(); ++i) {
         const auto& r = rs[i];
         t.add_row({std::to_string(r.num_osds), r.trace_name, r.policy_name,
                    erases(r), vs(count(r), count(same_group(rs, i, 0))),
                    vs(count(r), count(same_group(rs, i, 1))), erase_rsd(r),
                    Table::num(r.migration.moved_pages)});
       }
     }},

    // Fig. 7: mean response time per window of a replay whose migration
    // is forced at the midpoint (paper SV.D).
    {.name = "fig7_response_time",
     .title =
         "Fig. 7 -- mean response time during migration (forced at midpoint)",
     .note = "Shape check: HDF shows no spike -- its migrating window reads "
             "at or below baseline's -- and every window after it runs below "
             "baseline's; CDF's longer, paced migration stays within about "
             "10% of baseline's windows.",
     .cells = [](double s) {
       Cells cells = grid({"home02", "deasna", "lair62"},
                          {PolicyKind::kNone, PolicyKind::kHdf,
                           PolicyKind::kCdf},
                          {16}, s);
       for (auto& c : cells) {
         // Fixed fine-grained windows: the paper's 3-minute window, scaled,
         // leaves too few points on a reduced replay.
         c.sim.response_window_us =
             static_cast<SimDuration>(std::max(0.5e6, 20e6 * s));
         c.scale_time_windows = false;
         // A slow mover spreads the migration over several windows, as the
         // paper's minutes-long shuffle did; Figs. 5/6/8 keep the default.
         c.sim.mover_lane_mbps = 2.0 * s / 0.1;
       }
       return cells;
     },
     .columns = {"trace", "system", "window_start(s)", "ops", "mean_rt(ms)",
                 "phase"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       for (const auto& r : rs) {
         const SimTime window_len = r.response_timeline.size() > 1
                                        ? r.response_timeline[1].window_start
                                        : r.makespan_us + 1;
         for (const auto& w : r.response_timeline) {
           const bool during = r.migration.started_at != 0 &&
                               r.migration.started_at <
                                   w.window_start + window_len &&
                               r.migration.finished_at >= w.window_start;
           t.add_row({r.trace_name, r.policy_name,
                      Table::num(static_cast<double>(w.window_start) / 1e6, 1),
                      Table::num(w.completed_ops),
                      Table::num(w.mean_response_us / 1000.0, 2),
                      during ? "migrating" : ""});
         }
       }
     }},

    // Fig. 8: moved objects (and their share of all objects) per migration
    // technique -- the remapping-table overhead (paper SV.E).
    {.name = "fig8_moved_objects",
     .title = "Fig. 8 -- total moved objects per migration technique",
     .note = "Shape check: CMT > CDF > HDF in moved objects; remapping-table "
             "size (the memory overhead) grows with the move count.",
     .cells = [](double s) {
       return grid(kTraces,
                   {PolicyKind::kCmt, PolicyKind::kHdf, PolicyKind::kCdf}, {16},
                   s);
     },
     .columns = {"trace", "system", "moved_objects", "moved(%)", "moved_pages",
                 "remap_entries"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       for (const auto& r : rs) {
         t.add_row({r.trace_name, r.policy_name, moved(r),
                    Table::num(r.moved_object_fraction() * 100.0, 3),
                    Table::num(r.migration.moved_pages),
                    Table::num(static_cast<std::uint64_t>(
                        r.migration.remap_table_size))});
       }
     }},

    // Ablation: the Eq. 3 impact factor sigma.  The body measures each
    // workload's model fit over u <= 0.85 (the paper picks 0.28
    // empirically); the grid plans EDM-HDF with each sigma.
    {.name = "ablation_sigma",
     .title = "Ablation: sigma -- effect on EDM-HDF planning (lair62)",
     .cells = [](double s) {
       return vary(lair62({PolicyKind::kHdf}, s), kSigmas,
                   [](auto& c, double sigma) {
                     c.policy_config.model = core::WearModel(32, sigma);
                   });
     },
     .columns = {"sigma", "aggregate_erases", "erase_RSD", "moved_objects",
                 "throughput(ops/s)"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         t.add_row({Table::num(cells[i].policy_config.model.sigma(), 2),
                    erases(rs[i]), erase_rsd(rs[i]), moved(rs[i]),
                    throughput(rs[i])});
       }
     },
     .body = [](const Args& args, const Experiment& self) {
       const std::vector<std::string> workloads = {"home02", "deasna",
                                                   "lair62", "random"};
       const std::vector<double> utils = {0.40, 0.50, 0.60, 0.70, 0.80};
       std::vector<Probe> probes;
       for (const auto& w : workloads) {
         for (double u : utils) probes.push_back(probe(w, u));
       }
       const auto points = run_probes(probes, args, self.name);
       Table fit({"workload", "sigma", "rms_ur_error", "best_for_workload"});
       for (std::size_t w = 0; w < workloads.size(); ++w) {
         std::vector<double> errs;
         for (double sigma : kSigmas) {
           const core::WearModel model(32, sigma);
           double sq = 0;
           for (std::size_t k = 0; k < utils.size(); ++k) {
             const auto& p = points[w * utils.size() + k];
             const double err =
                 model.ur_of_utilization(p.utilization) - p.measured_ur;
             sq += err * err;
           }
           errs.push_back(std::sqrt(sq / static_cast<double>(utils.size())));
         }
         const auto best = std::min_element(errs.begin(), errs.end());
         for (std::size_t s = 0; s < kSigmas.size(); ++s) {
           fit.add_row({workloads[w], Table::num(kSigmas[s], 2),
                        Table::num(errs[s], 4),
                        errs.begin() + s == best ? "<== best" : ""});
         }
       }
       emit(fit, args, "Ablation: sigma -- wear-model fit error",
            "Eq. 2 (sigma=0) over-predicts u_r for skewed workloads; a "
            "positive sigma fits them far better, and 'random' prefers "
            "sigma ~ 0, as in the paper's Fig. 3.");
     }},

    // Ablation: the wear-imbalance trigger threshold lambda (paper
    // SIII.B.2).  EDM-HDF in monitor mode evaluates Eq. 4 every epoch;
    // the last cell is the baseline reference.
    {.name = "ablation_lambda",
     .title = "Ablation: trigger threshold lambda (EDM-HDF, monitor mode)",
     .note = "Small lambda = eager migration (better balance, more migration "
             "writes); large lambda degenerates to the baseline.",
     .cells = [](double s) {
       auto monitor = cell("lair62", PolicyKind::kHdf, 16, s);
       monitor.sim.trigger = sim::MigrationTrigger::kMonitor;
       monitor.sim.monitor_cooldown_epochs = 2;
       // Several epochs within the reduced replay; the paper's 1-minute
       // epoch assumes an hours-long run.
       monitor.sim.epoch_length_us =
           static_cast<SimDuration>(std::max(0.5e6, 20e6 * s));
       Cells cells =
           vary({monitor}, std::vector{0.05, 0.10, 0.15, 0.25, 0.50, 1.00},
                [](auto& c, double lambda) {
                  c.policy_config.lambda = lambda;
                });
       cells.push_back(cell("lair62", PolicyKind::kNone, 16, s));
       return cells;
     },
     .columns = {"lambda", "triggers", "moved_objects", "moved_pages",
                 "aggregate_erases", "erase_RSD", "throughput(ops/s)"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i + 1 < rs.size(); ++i) {
         const auto& r = rs[i];
         t.add_row({Table::num(cells[i].policy_config.lambda, 2),
                    Table::num(r.migration.triggers), moved(r),
                    Table::num(r.migration.moved_pages), erases(r),
                    erase_rsd(r), throughput(r)});
       }
       const auto& base = rs.back();
       t.add_row({"baseline", "0", "0", "0", erases(base), erase_rsd(base),
                  throughput(base)});
     }},

    // Ablation: the SSD group count m (paper SIII.A/D).  Migration stays
    // inside a group, so m bounds each source's destination choice.
    {.name = "ablation_groups",
     .title = "Ablation: group count m (16 OSDs, lair62)",
     .note = "Fewer, larger groups give migration more destination choice "
             "and better balance; m = 8 leaves only one peer per source.",
     .cells = [](double s) {
       // k = 4 objects/file needs m >= 4, and m must divide n = 16.
       return vary(lair62(kBaselineHdf, s), std::vector<std::uint32_t>{4, 8},
                   [](auto& c, std::uint32_t m) { c.num_groups = m; });
     },
     .columns = {"groups(m)", "group_size", "system", "throughput(ops/s)",
                 "erase_RSD", "aggregate_erases", "moved_objects"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         const auto m = cells[i].num_groups;
         t.add_row({std::to_string(m), std::to_string(16 / m),
                    rs[i].policy_name, throughput(rs[i]), erase_rsd(rs[i]),
                    erases(rs[i]), moved(rs[i])});
       }
     }},

    // Ablation: Algorithm 1's iteration budget (the paper fixes 500).  The
    // body plans a skewed 5-device group; the grid starves EDM-HDF.
    {.name = "ablation_iterations",
     .title = "Ablation: iteration budget end-to-end (lair62)",
     .cells = [](double s) {
       return vary(lair62({PolicyKind::kHdf}, s), std::vector{1, 500},
                   [](auto& c, int budget) {
                     c.policy_config.balance.iterations = budget;
                   });
     },
     .columns = {"iterations", "throughput(ops/s)", "erase_RSD",
                 "moved_objects"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         t.add_row({std::to_string(cells[i].policy_config.balance.iterations),
                    throughput(rs[i]), erase_rsd(rs[i]), moved(rs[i])});
       }
     },
     .body = [](const Args& args, const Experiment&) {
       const core::WearModel model(32, 0.28);
       const std::vector<double> wc = {90000, 15000, 40000, 8000, 22000};
       const std::vector<double> u = {0.72, 0.55, 0.64, 0.51, 0.58};
       Table table({"iterations", "ec_spread_after", "ec_rsd_after",
                    "total_pages_shifted"});
       for (int budget : {1, 2, 5, 10, 50, 500}) {
         core::BalanceParams params;
         params.iterations = budget;
         const auto delta = core::calculate_data_movement(
             model, wc, u, core::BalanceMode::kWritePages, params);
         double shifted = 0;
         util::StreamingStats ec;
         for (std::size_t i = 0; i < wc.size(); ++i) {
           ec.add(model.erase_count(wc[i] + delta[i], u[i]));
           if (delta[i] < 0) shifted -= delta[i];
         }
         table.add_row({std::to_string(budget),
                        Table::num(ec.max() - ec.min(), 1),
                        Table::num(ec.rsd(), 4), Table::num(shifted, 0)});
       }
       emit(table, args,
            "Ablation: Algorithm 1 iteration budget (planning only)",
            "Each iteration balances one max/min pair; a handful of "
            "iterations already removes most of the spread for "
            "group-sized device sets (the paper's 500 is generous).");
     }},

    // Ablation: client load level.  Migration relieves a bottleneck OSD,
    // so its throughput gain needs queueing to relieve.
    {.name = "ablation_queue_depth",
     .title = "Ablation: client queue depth (lair62, 16 OSDs)",
     .note = "At depth 1 the cluster is never saturated and migration buys "
             "little throughput; gains grow with offered load until every "
             "OSD saturates.",
     .cells = [](double s) {
       return vary(lair62(kBaselineHdf, s),
                   std::vector<std::uint32_t>{1, 2, 4, 8, 16},
                   [](auto& c, std::uint32_t depth) {
                     c.sim.client_queue_depth = depth;
                   });
     },
     .columns = {"queue_depth", "baseline(ops/s)", "HDF(ops/s)", "HDF_gain",
                 "baseline_rt(ms)", "HDF_rt(ms)"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); i += 2) {
         const auto& base = rs[i];
         const auto& hdf = rs[i + 1];
         t.add_row({std::to_string(cells[i].sim.client_queue_depth),
                    throughput(base), throughput(hdf), vs(ops(hdf), ops(base)),
                    mean_rt(base), mean_rt(hdf)});
       }
     }},

    // Extension: cluster lifetime.  Each policy's per-device erase rates,
    // extrapolated to an MLC P/E budget: first wear-out, balance
    // efficiency and the repair window before the second (SIII.D).
    {.name = "ext_lifetime",
     .title =
         "Extension: cluster lifetime (first device wear-out, MLC 3000 P/E)",
     .note = "Shape check: wear balancing converts unused headroom on cold "
             "devices into cluster lifetime -- HDF's balance efficiency "
             "approaches 1.0 and its lifetime gain mirrors the erase-RSD "
             "reduction of Fig. 6.  The days are an extrapolation artifact of "
             "the reduced replay intensity; compare ratios, not absolutes.",
     .cells = [](double s) {
       return grid({"home02", "lair62", "deasna"}, kSystems, {16}, s);
     },
     .columns = {"trace", "system", "cluster_lifetime", "vs_baseline",
                 "balance_efficiency", "first_to_second_gap"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       const auto lifetime = [](const RunResult& r) {
         core::EnduranceModel endurance;
         endurance.num_blocks = 2048;  // normalised device size
         std::vector<std::uint64_t> counts;
         for (const auto& o : r.per_osd) counts.push_back(o.flash.erase_count);
         return core::estimate_lifetime(
             counts, static_cast<double>(r.makespan_us) / 1e6, endurance);
       };
       const auto days = [](double seconds) {
         return Table::num(seconds / 86400.0, 1) + " days";
       };
       for (std::size_t i = 0; i < rs.size(); ++i) {
         const auto est = lifetime(rs[i]);
         const auto base = lifetime(same_group(rs, i, 0));
         t.add_row({rs[i].trace_name, rs[i].policy_name,
                    days(est.first_failure_seconds),
                    vs(est.first_failure_seconds, base.first_failure_seconds),
                    Table::num(est.balance_efficiency, 2),
                    days(est.first_to_second_gap_seconds)});
       }
     }},

    // Extension: the reliability design of SIII.D, measured outside the
    // event loop: availability under failure patterns before and after an
    // EDM-HDF shuffle, degraded-read amplification and rebuild cost.
    {.name = "ext_reliability",
     .title = "Reliability: file availability under failure patterns",
     .note = "Intra-group rows must be 0 before AND after migration (the "
             "invariant the intra-group constraint buys); the cross-group row "
             "shows what unconstrained migration would risk.",
     .scale = 0.05,  // lighter than the figs
     .body = [](const Args& args, const Experiment& self) {
       const auto trace =
           trace::TraceGenerator(
               trace::profile_by_name("home02").scaled(args.scale), 8)
               .generate();
       cluster::ClusterConfig ccfg;
       ccfg.num_osds = 16;
       ccfg.target_max_utilization = 0.55;
       cluster::Cluster cluster(ccfg, trace.files);
       cluster.populate();
       cluster.steady_state_warmup();
       cluster.reset_flash_stats();

       const auto before = unavailable_files(cluster);
       // Replay under EDM-HDF (forced midpoint shuffle).
       core::PolicyConfig pcfg;
       pcfg.model = core::WearModel(ccfg.flash.pages_per_block, 0.28);
       auto policy = core::make_policy(PolicyKind::kHdf, pcfg);
       sim::SimConfig scfg;
       scfg.num_clients = 8;
       sim::Simulator sim(scfg, cluster, trace, policy.get());
       const auto run = sim.run();
       const auto after = unavailable_files(cluster);

       Table avail({"failure pattern", "unavailable before shuffle",
                    "after EDM-HDF shuffle"});
       for (std::size_t i = 0; i < kFailures.size(); ++i) {
         avail.add_row({kFailures[i].first, Table::num(before[i]),
                        Table::num(after[i])});
       }
       emit(avail, args, self.title, self.note);

       // Degraded reads + rebuild cost.
       cluster.fail_osd(2);
       std::vector<cluster::OsdIo> ios;
       std::uint64_t healthy_pages = 0;
       std::uint64_t degraded_pages = 0;
       for (const auto& rec : trace.records) {
         if (rec.op != trace::OpType::kRead) continue;
         ios.clear();
         cluster.map_request(rec, ios);
         for (const auto& io : ios) degraded_pages += io.pages;
         healthy_pages += (rec.size + 4095) / 4096;
       }
       const auto rebuilt_objects = cluster.osd(2).store().object_count();
       const auto stats = cluster.rebuild_osd(2);

       Table cost({"metric", "value"});
       cost.add_row({"read amplification with 1/16 OSDs down",
                     Table::num(static_cast<double>(degraded_pages) /
                                    static_cast<double>(healthy_pages),
                                2) +
                         "x"});
       cost.add_row({"rebuild: objects reconstructed",
                     Table::num(stats.objects) + " / " +
                         Table::num(std::uint64_t{rebuilt_objects})});
       cost.add_row(
           {"rebuild: unrecoverable", Table::num(stats.unrecoverable)});
       cost.add_row({"rebuild: data written (MiB)",
                     Table::num(stats.pages_written * 4096 >> 20)});
       cost.add_row({"rebuild: peer reads (MiB)",
                     Table::num(stats.peer_pages_read * 4096 >> 20)});
       cost.add_row(
           {"rebuild: device time (s)",
            Table::num(static_cast<double>(stats.device_time) / 1e6, 2)});
       cost.add_row({"replay throughput during run (ops/s)", throughput(run)});
       std::cout << '\n';
       emit(cost, args, "Reliability: degraded access & rebuild cost", "");
     }},

    // Extension: wear de-synchronisation through unequal group sizes
    // (SIII.D).  RAID-5 stripes span groups, so staggered per-group wear
    // keeps the groups' wear-out fronts apart.
    {.name = "ext_wear_desync",
     .title = "Extension: per-group wear under equal vs weighted groups",
     .cells = [](double s) {
       return vary(lair62({PolicyKind::kHdf}, s), kDesyncVariants,
                   [](auto& c, const DesyncVariant& v) {
                     c.group_sizes = v.sizes;
                   });
     },
     .columns = {"variant", "group", "ssds", "mean_erases_per_ssd",
                 "projected_group_wearout(days)"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       for (std::size_t v = 0; v < rs.size(); ++v) {
         const auto& sizes = kDesyncVariants[v].sizes;
         const auto wear = group_wear(rs[v], sizes);
         for (std::size_t g = 0; g < sizes.size(); ++g) {
           t.add_row({kDesyncVariants[v].label, std::to_string(g),
                      std::to_string(sizes[g]),
                      Table::num(wear[g].mean_erases, 0),
                      Table::num(wear[g].wearout_s / 86400.0, 1)});
         }
       }
     },
     .then = [](const Args& args, const Cells&, const Results& rs) {
       Table summary({"variant", "throughput(ops/s)",
                      "min_cross_group_wearout_gap(days)"});
       for (std::size_t v = 0; v < rs.size(); ++v) {
         // Smallest gap between two groups' wear-out times: the window to
         // replace one group before another starts failing.
         std::vector<double> wearouts;
         for (const auto& g : group_wear(rs[v], kDesyncVariants[v].sizes)) {
           wearouts.push_back(g.wearout_s);
         }
         std::sort(wearouts.begin(), wearouts.end());
         double min_gap = 1e18;
         for (std::size_t g = 1; g < wearouts.size(); ++g) {
           min_gap = std::min(min_gap, wearouts[g] - wearouts[g - 1]);
         }
         summary.add_row({kDesyncVariants[v].label, throughput(rs[v]),
                          Table::num(min_gap / 86400.0, 2)});
       }
       std::cout << '\n';
       emit(summary, args, "Extension: wear de-synchronisation summary",
            "Weighted groups trade a little balance for a wide gap between "
            "group wear-out fronts -- the SIII.D insurance against "
            "correlated cross-group failures (equal groups wear out nearly "
            "together).");
     }},

    // Ablation: FTL hot/cold separation.  How much of the wear problem a
    // separating FTL removes on one device (the body), and whether EDM-HDF
    // still helps on top of it (the grid).
    {.name = "ablation_gc_stream",
     .title = "Ablation: GC-stream separation, cluster level (lair62)",
     .note = "A better FTL shrinks every device's GC bill, but the "
             "*cross-device* wear imbalance remains a cluster-level problem "
             "that only migration fixes.",
     .cells = [](double s) {
       return vary(lair62(kBaselineHdf, s), std::vector{false, true},
                   [](auto& c, bool separated) {
                     c.flash.separate_gc_stream = separated;
                   });
     },
     .columns = {"FTL", "system", "throughput(ops/s)", "aggregate_erases",
                 "erase_RSD"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         t.add_row(
             {cells[i].flash.separate_gc_stream ? "separated" : "mixing",
              rs[i].policy_name, throughput(rs[i]), erases(rs[i]),
              erase_rsd(rs[i])});
       }
     },
     .body = [](const Args& args, const Experiment& self) {
       std::vector<Probe> probes;
       for (const char* w : {"home02", "lair62", "random"}) {
         for (bool separated : {false, true}) {
           probes.push_back(probe(w, 0.70));
           probes.back().cfg.flash.separate_gc_stream = separated;
         }
       }
       const auto r = run_probes(probes, args, self.name);
       Table device({"workload", "ur (mixing FTL)", "ur (separated)",
                     "WA (mixing)", "WA (separated)"});
       for (std::size_t i = 0; i < r.size(); i += 2) {
         device.add_row({probes[i].workload, Table::num(r[i].measured_ur, 3),
                         Table::num(r[i + 1].measured_ur, 3),
                         Table::num(r[i].write_amplification, 2),
                         Table::num(r[i + 1].write_amplification, 2)});
       }
       emit(device, args,
            "Ablation: GC-stream separation, single device (u = 0.70)",
            "Separation lowers u_r/WA most where hot and cold pages would "
            "otherwise mix.");
     }},

    // Extension: live replay through an OSD failure at the midpoint.
    // Reads of the dead device's objects become k-1 peer reads through the
    // foreground queues; writes to it are lost until rebuild.
    {.name = "ext_degraded_replay",
     .title = "Extension: replay through an OSD failure (baseline)",
     .note = "Each degraded read fans out to k-1 = 3 peer reads; the "
             "end-to-end cost stays modest because only ~1/16 of the objects "
             "are affected for half the replay -- but the reconstruction "
             "traffic lands on the peers of every stripe the dead device "
             "touched.",
     .cells = [](double s) {
       Cells cells;
       for (const char* trace : {"home02", "lair62"}) {
         for (bool fail : {false, true}) {
           cells.push_back(cell(trace, PolicyKind::kNone, 16, s));
           if (fail) cells.back().sim.faults.fail_at_fraction(0, 0.5);
         }
       }
       return cells;
     },
     .columns = {"trace", "mode", "throughput(ops/s)", "vs_healthy",
                 "mean_rt(ms)", "degraded_reads", "lost_writes"},
     .rows = [](Table& t, const Cells&, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         const auto& r = rs[i];
         t.add_row({r.trace_name,
                    i % 2 == 0 ? "healthy" : "osd 0 down @ midpoint",
                    throughput(r), vs(ops(r), ops(rs[i - i % 2])), mean_rt(r),
                    Table::num(r.degraded.degraded_reads),
                    Table::num(r.degraded.lost_writes)});
       }
     }},

    // Extension: fault-injected replay with online recovery.  A healthy
    // replay sets the schedule: OSD 0 dies at 40% of its makespan, an
    // online rebuild starts at 50%, and a last mode adds transient errors.
    // p99 isolates the cost of reconstruction traffic to the foreground.
    {.name = "ext_fault_replay",
     .title = "Extension: fault-injected replay with online rebuild",
     .note = "A single failure never makes requests unavailable (RAID-5 "
             "across groups reconstructs every read from k-1 peers), so "
             "unavail_frac stays 0.  The failure alone does not raise p99: "
             "without a rebuild, writes to the dead device are dropped, which "
             "removes work.  Online rebuild adds chunked reconstruction "
             "traffic through the same OSD queues and lifts p99 above the "
             "failure-only run's, most on the faster home02; transient "
             "errors add retries but, with backoff, no unavailable requests "
             "at this rate.",
     .body = [](const Args& args, const Experiment& self) {
       Table table({"trace", "mode", "throughput(ops/s)", "p99(ms)",
                    "vs_healthy", "unavail_frac", "degraded_reads", "retried",
                    "rebuilt", "rebuild(ms)"});
       const std::vector<const char*> modes = {
           "healthy", "osd 0 down @ 40%", "+ online rebuild @ 50%",
           "+ transient errors 0.1%"};
       Results all_results;
       for (const char* trace_name : {"home02", "lair62"}) {
         const Results rs = replay_faulted(
             cell(trace_name, PolicyKind::kNone, 16, args.scale), args,
             self.name,
             [](const sim::ExperimentConfig& base, const RunResult& healthy) {
               const auto at = [&](double f) {
                 return static_cast<SimTime>(f * healthy.makespan_us);
               };
               Cells faulted(3, base);
               faulted[0].sim.faults.fail(0, at(0.4));
               faulted[1].sim.faults = faulted[0].sim.faults;
               faulted[1].sim.faults.rebuild(0, at(0.5));
               faulted[2].sim.faults = faulted[1].sim.faults;
               faulted[2].sim.faults.transient_error_rate = 0.001;
               return faulted;
             });
         const double healthy_p99 = rs[0].response_histogram.quantile(0.99);
         for (std::size_t i = 0; i < rs.size(); ++i) {
           const RunResult& r = rs[i];
           all_results.push_back(r);
           const double p99 = r.response_histogram.quantile(0.99);
           const double unavail =
               r.completed_ops ? static_cast<double>(r.degraded.unavailable) /
                                     static_cast<double>(r.completed_ops)
                               : 0.0;
           const auto& f = r.faults;
           const double rebuild_ms =
               f.rebuild_finished_at > f.rebuild_started_at
                   ? (f.rebuild_finished_at - f.rebuild_started_at) / 1000.0
                   : 0.0;
           table.add_row({trace_name, modes[i], throughput(r),
                          ms(r.response_histogram, 0.99), vs(p99, healthy_p99),
                          Table::num(unavail, 4),
                          Table::num(r.degraded.degraded_reads),
                          Table::num(f.retried_requests),
                          Table::num(f.rebuild_objects),
                          Table::num(rebuild_ms, 1)});
         }
       }
       emit(table, args, self.title, self.note);
       write_telemetry_outputs(all_results, args);
     }},

    // Extension: fail-slow with online health detection.  The clean run,
    // with the health monitor watching, is both the baseline and the
    // detector's false-positive check.  OSD 3 then turns fail-slow at 20%
    // of the clean makespan (service time x8, and a 4 ms stall on 5% of
    // its requests) in three modes: unwatched, detected, and mitigated by
    // hedged RAID-5 reads plus quarantine-and-drain.
    {.name = "ext_failslow",
     .title = "Extension: fail-slow injection with online detection and "
              "mitigation",
     .body = [](const Args& args, const Experiment& self) {
       Table table({"trace", "mode", "p99(ms)", "p999(ms)", "makespan(s)",
                    "flagged", "detect(s)", "hedged(wins)", "drained"});
       const std::vector<const char*> modes = {
           "clean (+monitor)", "fail-slow", "+ detection",
           "+ hedge/quarantine"};
       Results all_results;
       std::string recovered;
       for (const char* trace_name : {"home02", "lair62"}) {
         auto clean = cell(trace_name, PolicyKind::kHdf, 16, args.scale);
         clean.sim.health.enabled = true;
         // A shorter check period than the 2 s default keeps detection
         // latency proportionate to these reduced-scale replays.
         clean.sim.health.check_interval_us = 500 * 1000;
         SimTime slow_at = 0;
         const Results rs = replay_faulted(
             clean, args, self.name,
             [&](const sim::ExperimentConfig& base, const RunResult& r) {
               slow_at = static_cast<SimTime>(0.2 * r.makespan_us);
               Cells faulted(3, base);
               for (std::size_t i = 0; i < faulted.size(); ++i) {
                 faulted[i].sim.faults.slow(3, slow_at, 8.0, 0.05, 4000);
                 faulted[i].sim.health.enabled = i > 0;
                 faulted[i].sim.health.mitigate = i == 2;
               }
               return faulted;
             });
         for (std::size_t i = 0; i < rs.size(); ++i) {
           const RunResult& r = rs[i];
           all_results.push_back(r);
           const auto& h = r.health;
           const bool detecting = i >= 2;  // injected, monitor watching
           const double detect_s =
               h.first_flagged_at > slow_at
                   ? (h.first_flagged_at - slow_at) / 1e6
                   : 0.0;
           table.add_row({trace_name, modes[i], ms(r.response_histogram, 0.99),
                          ms(r.response_histogram, 0.999),
                          Table::num(r.makespan_us / 1e6, 2),
                          osd_list(h.flagged_osds),
                          detecting ? Table::num(detect_s, 2) : "-",
                          Table::num(h.hedged_reads) + " (" +
                              Table::num(h.hedge_wins) + ")",
                          Table::num(h.drain_moved) + "/" +
                              Table::num(h.drain_planned)});
         }
         const double mitigated = rs[3].response_histogram.quantile(0.99);
         const double improvement =
             mitigated > 0.0
                 ? rs[1].response_histogram.quantile(0.99) / mitigated
                 : 0.0;
         recovered += (recovered.empty() ? "" : " / ") +
                      Table::num(improvement, 2) + "x";
       }
       emit(table, args, self.title,
            "With detection alone the monitor flags exactly the injected "
            "device, and nothing on the clean run (service-time scoring "
            "separates sick from busy: an overloaded device accrues queue "
            "wait, not service time); under mitigation it can flag a second "
            "device too, as on home02.  "
            "Hedged RAID-5 reads cap the tail a flagged device can impose "
            "and quarantine-and-drain moves its hottest objects away; "
            "together they recover " +
                recovered + " of the injected p99 damage (home02, lair62).");
       write_telemetry_outputs(all_results, args);
     }},

    // Ablation: GC victim selection, greedy (the paper's assumption) vs
    // cost-benefit.  The cluster-level endurance model assumes the FTL
    // levels wear internally; this shows how much that asks of it.
    {.name = "ablation_gc_policy",
     .title = "Ablation: GC victim policy (single device, u = 0.70)",
     .note = "Greedy wins on WA; cost-benefit wins on internal wear spread -- "
             "the static-wear-levelling burden the endurance model assumes "
             "away.",
     .body = [](const Args& args, const Experiment& self) {
       using GcPolicy = flash::FlashConfig::GcPolicy;
       const std::vector<std::pair<const char*, double>> workloads = {
           {"uniform", 0.0}, {"mild hot-spot", 0.5}, {"90/10 hot-spot", 0.9}};
       const std::vector<GcPolicy> policies = {GcPolicy::kGreedy,
                                               GcPolicy::kCostBenefit};
       const auto outcomes = runner::parallel_map<GcOutcome>(
           workloads.size() * policies.size(),
           [&](std::size_t i) {
             return gc_churn(policies[i % 2], workloads[i / 2].second);
           },
           sweep_options(args, self.name));

       Table table({"workload", "policy", "WA", "measured_ur", "erases",
                    "block_wear_rsd", "max/mean block erases"});
       for (std::size_t i = 0; i < outcomes.size(); ++i) {
         const auto& o = outcomes[i];
         table.add_row(
             {workloads[i / 2].first, i % 2 == 0 ? "greedy" : "cost-benefit",
              Table::num(o.wa, 3), Table::num(o.measured_ur, 3),
              Table::num(o.erases), Table::num(o.wear.rsd, 3),
              Table::num(o.wear.mean_erases > 0
                             ? static_cast<double>(o.wear.max_erases) /
                                   o.wear.mean_erases
                             : 0.0,
                         1)});
       }
       emit(table, args, self.title, self.note);
     }},

    // Extension: generator-seed sensitivity.  The traces are synthetic, so
    // the policy orderings must not depend on one random draw.
    {.name = "ext_seed_sensitivity",
     .title = "Extension: generator-seed sensitivity (baseline vs HDF)",
     .note = "The HDF gain must stay positive across seeds -- the ordering is "
             "a property of the workload statistics, not of one random draw.",
     .cells = [](double s) {
       Cells cells;
       for (const char* trace : {"home02", "lair62"}) {
         const auto seeded = vary(
             grid({trace}, kBaselineHdf, {16}, s),
             std::vector<std::uint64_t>{0, 0x1111, 0x2222, 0x3333, 0x4444},
             [](auto& c, std::uint64_t seed) { c.trace_seed_offset = seed; });
         cells.insert(cells.end(), seeded.begin(), seeded.end());
       }
       return cells;
     },
     .columns = {"trace", "seed", "HDF_throughput_gain", "HDF_erase_delta",
                 "baseline_erase_RSD"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       util::StreamingStats gains;
       for (std::size_t i = 0; i < rs.size(); i += 2) {
         const auto& base = rs[i];
         const auto& hdf = rs[i + 1];
         const double gain = (ops(hdf) - ops(base)) / ops(base);
         gains.add(gain);
         const auto seed = cells[i].trace_seed_offset;
         t.add_row({base.trace_name, seed == 0 ? "default" : Table::num(seed),
                    Table::pct(gain),
                    vs(static_cast<double>(hdf.aggregate_erases()),
                       static_cast<double>(base.aggregate_erases())),
                    erase_rsd(base)});
         if (i + 2 == rs.size() || rs[i + 2].trace_name != base.trace_name) {
           t.add_row({base.trace_name, "mean +- sd",
                      Table::pct(gains.mean()) + " +- " +
                          Table::num(gains.stddev() * 100, 1),
                      "", ""});
           gains = {};
         }
       }
     }},

    // Extension: open-loop multi-tenant SLO sweep.  Closed-loop replay
    // self-clocks, so offered load always equals throughput and overload
    // cannot be expressed.  Here home02 and lair62 arrive as Poisson
    // tenants at m times half their solo closed-loop capacity, for m from
    // 0.5 to past the saturation knee, under three policies; the matched
    // closed-loop replay per policy is the reference, with "-" where it
    // has no such concept.
    {.name = "ext_openloop",
     .title = "Extension: open-loop multi-tenant SLO sweep",
     .scale = 0.05,
     .body = [](const Args& args, const Experiment& self) {
       const std::vector<std::pair<const char*, PolicyKind>> policies = {
           {"baseline", PolicyKind::kNone},
           {"hdf", PolicyKind::kHdf},
           {"cdf", PolicyKind::kCdf}};
       const std::vector<double> multipliers = {0.5, 0.8, 1.0, 1.2, 1.5};
       // Each tenant profile's solo closed-loop throughput: the capacity
       // every multiplier is expressed against.  These probes write no
       // telemetry files; the table's rows do.
       Args probe_args = args;
       probe_args.trace_out.clear();
       probe_args.timeseries_out.clear();
       const Results capacity =
           run_cells({cell("home02", PolicyKind::kNone, 16, args.scale),
                      cell("lair62", PolicyKind::kNone, 16, args.scale)},
                     probe_args, self.name + "/capacity");
       const auto tenant = [&](const char* profile, double rate,
                               double slo_ms) {
         workload::TenantSpec t;
         t.profile = profile;
         t.rate_ops_per_sec = rate;
         t.slo_ms = slo_ms;
         return t;
       };
       // The open-loop cells, then the closed-loop references: one sweep
       // in table order, so telemetry file i belongs to run i.
       Cells cells;
       for (const auto& [label, policy] : policies) {
         for (double m : multipliers) {
           cells.push_back(cell("home02", policy, 16, args.scale));
           cells.back().open_loop.tenants = {
               tenant("home02", m * ops(capacity[0]) / 2.0, 25.0),
               tenant("lair62", m * ops(capacity[1]) / 2.0, 50.0)};
         }
       }
       const std::size_t num_open = cells.size();
       for (const auto& [label, policy] : policies) {
         cells.push_back(cell("home02", policy, 16, args.scale));
       }
       const Results results = run_cells(cells, args, self.name);

       Table table({"policy", "mult", "offered(op/s)", "peakQ", "tenant",
                    "p50(ms)", "p99(ms)", "p999(ms)", "viol%"});
       for (std::size_t i = 0; i < num_open; ++i) {
         const auto& w = results[i].workload;
         for (const auto& tn : w.tenants) {
           table.add_row({policies[i / multipliers.size()].first,
                          Table::num(multipliers[i % multipliers.size()], 1),
                          Table::num(w.offered_ops_per_sec, 0),
                          std::to_string(w.peak_queue_depth), tn.name,
                          ms(tn.response_histogram, 0.50),
                          ms(tn.response_histogram, 0.99),
                          ms(tn.response_histogram, 0.999),
                          Table::num(100.0 * tn.slo_violation_fraction(), 1)});
         }
       }
       for (std::size_t i = 0; i < policies.size(); ++i) {
         const auto& r = results[num_open + i];
         table.add_row({std::string(policies[i].first) + " (closed)", "-",
                        throughput(r), "-", "-", "-",
                        ms(r.response_histogram, 0.99),
                        ms(r.response_histogram, 0.999), "-"});
       }

       // Separation at the deepest multiplier under the first policy: the
       // largest tenant p99 over the smallest.
       double lo = 0.0;
       double hi = 0.0;
       for (const auto& tn : results[multipliers.size() - 1].workload.tenants) {
         const double p99 = tn.response_histogram.quantile(0.99);
         if (lo == 0.0 || p99 < lo) lo = p99;
         if (p99 > hi) hi = p99;
       }
       emit(table, args, self.title,
            "Offered load is expressed against the solo closed-loop "
            "capacities (" +
                throughput(capacity[0]) + " op/s home02, " +
                throughput(capacity[1]) +
                " op/s lair62).  Below saturation the open-loop tenants "
                "track their SLOs; past the knee the shared queues grow "
                "without bound and the per-tenant p99s separate (" +
                Table::num(lo > 0.0 ? hi / lo : 0.0, 2) + "x at " +
                Table::num(multipliers.back(), 1) +
                "x offered).  The closed-loop rows self-clock at capacity: "
                "no offered-load axis, no per-tenant tail, no SLO "
                "accounting.");
     }},

    // Extension: flash internal parallelism (docs/internals/flash.md
    // "Parallel timing model").  home02 on 8 OSDs with migration off
    // replays on each geometry at each OSD queue depth; the subject is
    // simulated throughput, so the numbers do not depend on the host.  The
    // request overhead is zeroed: it overlaps across a client's
    // sub-requests and would mimic device parallelism even on the flat
    // model.  A deep client window keeps work in the OSD queues.
    {.name = "ext_parallelism",
     .title = "Extension: flash parallelism -- simulated throughput vs queue "
              "depth (home02, 8 OSDs)",
     .note = "Speedup is simulated completed_ops/makespan against the same "
             "geometry's depth-1 cell, with the request overhead zeroed; "
             "flat must stay at 1.00 by construction "
             "(docs/internals/flash.md).",
     .cells = [](double s) {
       Cells cells;
       for (const auto& g : kGeometries) {
         for (auto depth : kDepths) {
           auto c = cell("home02", PolicyKind::kNone, 8, s);
           c.sim.trigger = sim::MigrationTrigger::kNone;
           c.sim.request_overhead_us = 0;
           c.sim.client_queue_depth = 32;
           c.sim.osd_queue_depth = depth;
           c.flash.geometry = g.geom;
           c.flash.bus_ctrl_us = g.bus_ctrl_us;
           c.flash.bus_data_us = g.bus_data_us;
           cells.push_back(c);
         }
       }
       return cells;
     },
     .columns = {"geometry", "qd", "ops", "makespan(s)", "ops/s", "speedup"},
     .rows = [](Table& t, const Cells& cells, const Results& rs) {
       for (std::size_t i = 0; i < rs.size(); ++i) {
         const auto& g = kGeometries[i / kDepths.size()];
         const RunResult& first = rs[i - i % kDepths.size()];
         const auto depth = cells[i].sim.osd_queue_depth;
         const double speedup = ops(first) > 0.0 ? ops(rs[i]) / ops(first)
                                                 : 0.0;
         // A flat device serves one request at a time, so every depth must
         // replay the same simulation: a drift is a bug, not a result.
         if (g.geom.luns() == 1 && g.bus_ctrl_us == 0 && g.bus_data_us == 0 &&
             rs[i].makespan_us != first.makespan_us) {
           throw std::runtime_error(
               "ext_parallelism: flat geometry scaled with queue depth "
               "(makespan " +
               std::to_string(rs[i].makespan_us) + " at qd " +
               std::to_string(depth) + " vs " +
               std::to_string(first.makespan_us) + " at qd " +
               std::to_string(kDepths.front()) + ")");
         }
         // The headline claim: a multi-die geometry turns depth into
         // throughput.
         if (g.geom.luns() > 1 && depth == kDepths.back() && speedup < 1.1) {
           throw std::runtime_error(
               std::string("ext_parallelism: ") + g.name + " at qd " +
               std::to_string(depth) + " speedup " + Table::num(speedup, 2) +
               " < 1.1 -- geometry stopped buying throughput");
         }
         t.add_row({g.name, std::to_string(depth),
                    std::to_string(rs[i].completed_ops),
                    Table::num(static_cast<double>(rs[i].makespan_us) / 1e6,
                               3),
                    throughput(rs[i]), Table::num(speedup, 2)});
       }
     }},
};

/// One experiment's part of the --out document.
struct Report {
  std::string name;
  double scale = 0;
  std::vector<EmittedTable> tables;
};

Report run(const Experiment& e, Args args) {
  if (e.scale > 0 && !args.scale_given) args.scale = e.scale;
  Report report{e.name, args.scale, {}};
  args.emitted = &report.tables;
  if (e.body) e.body(args, e);
  if (e.cells) {
    if (e.body) std::cout << '\n';
    const Cells cells = e.cells(args.scale);
    const Results results = run_cells(cells, args, e.name);
    Table table(e.columns);
    e.rows(table, cells, results);
    emit(table, args, e.title, e.note);
    if (e.then) e.then(args, cells, results);
  }
  return report;
}

void write_document(std::ostream& os, const std::vector<Report>& reports) {
  const auto quoted = [](const std::string& s) {
    return '"' + util::provenance_json_escape(s) + '"';
  };
  os << "{\n  \"schema\": \"edm-experiments/1\",\n";
  util::write_provenance_json(os, util::collect_provenance(), "  ");
  os << ",\n  \"experiments\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Report& r = reports[i];
    os << (i ? ",\n" : "\n") << "    {\n"
       << "      \"name\": " << quoted(r.name) << ",\n"
       << "      \"scale\": " << r.scale << ",\n"
       << "      \"tables\": [";
    for (std::size_t t = 0; t < r.tables.size(); ++t) {
      const EmittedTable& e = r.tables[t];
      os << (t ? ",\n" : "\n") << "        {\n"
         << "          \"title\": " << quoted(e.title) << ",\n";
      e.table.write_json(os, "          ");
      os << ",\n          \"note\": " << quoted(e.note) << "\n        }";
    }
    os << "\n      ]\n    }";
  }
  os << "\n  ]\n}\n";
}

}  // namespace
}  // namespace edm::bench

int main(int argc, char** argv) {
  using namespace edm::bench;
  Args args;
  edm::util::FlagParser parser = make_flag_parser(args);
  parser.add_string_list("--experiment", &args.experiments,
                         "experiment to run, repeatable ('all' = every one)");
  parser.add_string("--out", &args.out,
                    "write every printed table as one JSON document");
  switch (parser.parse(argc, argv)) {
    case edm::util::FlagParser::Result::kOk:
      break;
    case edm::util::FlagParser::Result::kHelp:
      parser.print_usage(std::cerr, argv[0]);
      return 0;
    case edm::util::FlagParser::Result::kError:
      std::cerr << parser.error() << "\n";
      parser.print_usage(std::cerr, argv[0]);
      return 2;
  }
  args.scale_given = parser.seen("--scale");

  std::string valid = "all";
  for (const auto& e : kCatalogue) valid += ", " + e.name;
  std::vector<const Experiment*> chosen;
  for (const auto& name : args.experiments) {
    const std::size_t before = chosen.size();
    for (const auto& e : kCatalogue) {
      if (name == "all" || name == e.name) chosen.push_back(&e);
    }
    if (chosen.size() == before) {
      std::cerr << "experiments: unknown experiment '" << name
                << "'; valid names: " << valid << "\n";
      return 2;
    }
  }
  if (chosen.empty()) {
    std::cerr << "experiments: no --experiment given; valid names: " << valid
              << "\n";
    return 2;
  }
  if (chosen.size() > 1 &&
      (!args.trace_out.empty() || !args.timeseries_out.empty())) {
    std::cerr << "experiments: --trace-out and --timeseries-out take one "
                 "experiment, since per-cell file indexes would collide\n";
    return 2;
  }
  std::ofstream out;
  if (!args.out.empty()) {
    out.open(args.out);
    if (!out) {
      std::cerr << "experiments: cannot write " << args.out << "\n";
      return 1;
    }
  }
  std::vector<Report> reports;
  try {
    for (const Experiment* e : chosen) reports.push_back(run(*e, args));
  } catch (const std::exception& error) {
    std::cerr << "experiments: " << error.what() << "\n";
    return 1;
  }
  if (out.is_open()) {
    write_document(out, reports);
    out.close();
    if (!out) {
      std::cerr << "experiments: cannot write " << args.out << "\n";
      return 1;
    }
  }
  return 0;
}
