// Quickstart: replay one workload on a 16-OSD SSD cluster under all four
// systems (baseline, CMT, EDM-HDF, EDM-CDF) and print the headline metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [trace=home02] [scale=0.05]
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const std::string trace = argc > 1 ? argv[1] : "home02";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;

  using edm::core::PolicyKind;
  const std::vector<PolicyKind> systems = {
      PolicyKind::kNone, PolicyKind::kCmt, PolicyKind::kHdf,
      PolicyKind::kCdf};

  std::vector<edm::sim::ExperimentConfig> cells;
  for (PolicyKind policy : systems) {
    edm::sim::ExperimentConfig cfg;
    cfg.trace_name = trace;
    cfg.scale = scale;
    cfg.num_osds = 16;
    cfg.policy = policy;
    cells.push_back(cfg);
  }

  std::cout << "EDM quickstart: trace=" << trace << " scale=" << scale
            << " (16 OSDs, m=4 groups, k=4 objects/file)\n\n";
  const auto results = edm::runner::run_sweep(cells);

  edm::util::Table table({"system", "throughput(ops/s)", "mean_rt(ms)",
                          "erases", "erase_RSD", "moved_objects",
                          "moved(%)", "remap_entries"});
  const double base_erases =
      static_cast<double>(results.front().aggregate_erases());
  for (const auto& r : results) {
    table.add_row({
        r.policy_name,
        edm::util::Table::num(r.throughput_ops_per_sec(), 0),
        edm::util::Table::num(r.mean_response_us / 1000.0, 2),
        edm::util::Table::num(r.aggregate_erases()) + " (" +
            edm::util::Table::pct(
                (static_cast<double>(r.aggregate_erases()) - base_erases) /
                base_erases) +
            ")",
        edm::util::Table::num(r.erase_rsd(), 3),
        edm::util::Table::num(
            static_cast<std::uint64_t>(r.migration.moved_objects)),
        edm::util::Table::num(r.moved_object_fraction() * 100.0, 3),
        edm::util::Table::num(
            static_cast<std::uint64_t>(r.migration.remap_table_size)),
    });
  }
  table.print(std::cout);
  std::cout << "\nExpected shape (paper Figs. 5/6/8): HDF ~ CMT > CDF > "
               "baseline on throughput; HDF fewest erases and fewest moved "
               "objects; CMT most of both.\n";
  return 0;
}
