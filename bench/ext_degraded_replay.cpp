// Extension experiment: live replay through an OSD failure.
//
// Injects a device failure at the midpoint of the replay and measures the
// degraded-mode cost end to end: every read of the dead device's objects
// becomes k-1 peer reads (RAID-5 reconstruction through the same OSD
// queues as foreground traffic), writes to it are lost until rebuild.
// Complements bench/ext_reliability, which measures the same mechanics
// outside the event loop.
//
//   ./build/bench/ext_degraded_replay [--scale=0.1] [--csv] [--jobs=N]
#include "bench/common.h"

int main(int argc, char** argv) {
  auto args = edm::bench::parse_args(argc, argv);
  using edm::util::Table;

  Table table({"trace", "mode", "throughput(ops/s)", "vs_healthy",
               "mean_rt(ms)", "degraded_reads", "lost_writes"});
  for (const char* trace : {"home02", "lair62"}) {
    std::vector<edm::sim::ExperimentConfig> cells;
    for (bool fail : {false, true}) {  // healthy, then OSD 0 at midpoint
      auto cfg = edm::bench::cell(trace, edm::core::PolicyKind::kNone, 16,
                                  args.scale);
      if (fail) cfg.sim.faults.fail_at_fraction(0, 0.5);
      cells.push_back(cfg);
    }
    const auto results = edm::bench::run_cells(cells, args, "ext_degraded_replay");
    const double healthy = results[0].throughput_ops_per_sec();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      table.add_row({
          trace,
          i == 0 ? "healthy" : "osd 0 down @ midpoint",
          Table::num(r.throughput_ops_per_sec(), 0),
          Table::pct((r.throughput_ops_per_sec() - healthy) / healthy),
          Table::num(r.mean_response_us / 1000.0, 2),
          Table::num(r.degraded.degraded_reads),
          Table::num(r.degraded.lost_writes),
      });
    }
  }
  edm::bench::emit(
      table, args, "Extension: replay through an OSD failure (baseline)",
      "Each degraded read fans out to k-1 = 3 peer reads; the end-to-end "
      "cost stays modest because only ~1/16 of the objects are affected "
      "for half the replay -- but the reconstruction traffic lands on the "
      "peers of every stripe the dead device touched.");
  return 0;
}
