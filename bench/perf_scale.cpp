// Scale-dimension memory/throughput benchmark: how peak RSS and replay
// throughput behave as the trace scale grows, for both replay modes --
//
//   materialized: run_experiment() -- the whole trace vector is generated
//                 up front (peak memory O(record_count));
//   streaming:    run_experiment_streaming() -- replay lanes pull records
//                 lazily from a TraceCursor (peak memory O(file_count +
//                 clients x lookahead)).
//
// Both modes replay byte-identically (tests/sim/digest_test.cpp); this
// bench measures what that buys: the committed BENCH_scale.json must show
// streaming peak RSS flattening out while materialized grows linearly.
//
// Measurement methodology:
//   * every cell runs in its OWN SUBPROCESS (this binary re-executes
//     itself with --cell): VmHWM is a per-process high-water mark, so a
//     shared process would report max-over-all-cells for every cell;
//   * within a cell, --repeat runs keep the fastest replay (best-of-N)
//     while peak RSS is read once at the end;
//   * events_processed must be identical across repeats and modes -- a
//     mismatch aborts the bench (behaviour changed, not speed).
//
//   ./build/bench/perf_scale [--scales=0.5,1,2,4,8] [--trace=home02]
//                            [--policy=hdf] [--repeat=2] [--quick]
//                            [--out=BENCH_scale.json]
//
// Replay cost at a fixed scale, with per-layer attribution, is the replay
// benchmark's job (perfbench/README.md); this bench is the only one that
// sweeps trace scale.
//
// --quick runs a single streaming cell at scale 2 with one repeat (the
// tools/check.sh scale-smoke gate); its JSON is shape-compatible but not
// comparable with full-grid results.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/provenance.h"
#include "core/policy.h"
#include "sim/experiment.h"
#include "util/flags.h"
#include "util/rss.h"
#include "util/table.h"

namespace {

constexpr const char* kCellMarker = "EDM_CELL_RESULT";

struct Args {
  std::string scales = "0.5,1,2,4,8";
  std::string trace = "home02";
  std::string policy = "hdf";
  std::uint32_t repeat = 2;
  bool quick = false;
  std::string out;
  // Internal cell-mode flags (parent -> child).
  bool cell = false;
  std::string mode = "streaming";
  double scale = 1.0;
};

struct CellResult {
  double scale = 0.0;
  std::string mode;
  std::string trace;
  std::string policy;
  std::uint32_t num_osds = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t completed_ops = 0;
  double replay_wall_s = 0.0;
  double setup_wall_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  double events_per_sec() const {
    return replay_wall_s > 0.0
               ? static_cast<double>(events_processed) / replay_wall_s
               : 0.0;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  edm::util::FlagParser parser;
  parser.add_string("--scales", &args.scales,
                    "comma-separated trace scales for the sweep");
  parser.add_string("--trace", &args.trace, "workload profile name");
  parser.add_string("--policy", &args.policy,
                    "migration policy: baseline|cmt|hdf|cdf");
  parser.add_uint32("--repeat", &args.repeat,
                    "timed repeats per cell; the fastest replay is kept");
  parser.add_bool("--quick", &args.quick,
                  "one streaming cell at scale 2, one repeat (smoke gate)");
  parser.add_string("--out", &args.out,
                    "write edm-bench-result/1 JSON to this path");
  parser.add_bool("--cell", &args.cell,
                  "internal: run one cell in-process and print its result");
  parser.add_string("--mode", &args.mode,
                    "cell replay mode: streaming|materialized");
  parser.add_double("--scale", &args.scale, "cell trace scale (with --cell)");
  switch (parser.parse(argc, argv)) {
    case edm::util::FlagParser::Result::kOk:
      break;
    case edm::util::FlagParser::Result::kHelp:
      parser.print_usage(std::cerr, argv[0]);
      std::exit(0);
    case edm::util::FlagParser::Result::kError:
      std::cerr << parser.error() << "\n";
      parser.print_usage(std::cerr, argv[0]);
      std::exit(2);
  }
  if (args.repeat == 0) args.repeat = 1;
  return args;
}

edm::core::PolicyKind policy_from(const std::string& name) {
  if (name == "baseline" || name == "none") return edm::core::PolicyKind::kNone;
  if (name == "cmt") return edm::core::PolicyKind::kCmt;
  if (name == "hdf") return edm::core::PolicyKind::kHdf;
  if (name == "cdf") return edm::core::PolicyKind::kCdf;
  std::cerr << "perf_scale: unknown policy '" << name
            << "' (expected baseline|cmt|hdf|cdf)\n";
  std::exit(2);
}

std::vector<double> parse_scales(const std::string& list) {
  std::vector<double> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (end == item.c_str() || *end != '\0' || v <= 0.0) {
      std::cerr << "perf_scale: bad --scales entry '" << item << "'\n";
      std::exit(2);
    }
    out.push_back(v);
  }
  if (out.empty()) {
    std::cerr << "perf_scale: --scales is empty\n";
    std::exit(2);
  }
  return out;
}

// ---------------------------------------------------------------- child

/// Runs one cell in this process and prints a marker line the parent
/// parses.  Exit code != 0 on nondeterminism.
int run_cell(const Args& args) {
  edm::sim::ExperimentConfig cfg;
  cfg.trace_name = args.trace;
  cfg.policy = policy_from(args.policy);
  cfg.num_osds = 16;
  cfg.scale = args.scale;

  CellResult out;
  out.scale = args.scale;
  out.mode = args.mode;
  const bool streaming = args.mode == "streaming";
  if (!streaming && args.mode != "materialized") {
    std::cerr << "perf_scale: unknown mode '" << args.mode << "'\n";
    return 2;
  }
  for (std::uint32_t i = 0; i < args.repeat; ++i) {
    const edm::sim::RunResult r =
        streaming ? edm::sim::run_experiment_streaming(cfg)
                  : edm::sim::run_experiment(cfg);
    if (i == 0) {
      out.trace = r.trace_name;
      out.policy = r.policy_name;
      out.num_osds = r.num_osds;
      out.events_processed = r.perf.events_processed;
      out.completed_ops = r.completed_ops;
      out.replay_wall_s = r.perf.replay_wall_s;
      out.setup_wall_s = r.perf.setup_wall_s;
      continue;
    }
    if (r.perf.events_processed != out.events_processed) {
      std::cerr << "nondeterministic replay: scale " << args.scale << "/"
                << args.mode << " processed " << r.perf.events_processed
                << " events vs " << out.events_processed << " on repeat 0\n";
      return 1;
    }
    out.replay_wall_s = std::min(out.replay_wall_s, r.perf.replay_wall_s);
    out.setup_wall_s = std::min(out.setup_wall_s, r.perf.setup_wall_s);
  }
  // The per-process high-water mark; repeats only re-touch the same
  // footprint, so this is the peak of one cell, not a sum.
  out.peak_rss_bytes = edm::util::peak_rss_bytes();

  std::cout << kCellMarker << " trace=" << out.trace
            << " policy=" << out.policy << " num_osds=" << out.num_osds
            << " events_processed=" << out.events_processed
            << " completed_ops=" << out.completed_ops
            << " replay_wall_s=" << out.replay_wall_s
            << " setup_wall_s=" << out.setup_wall_s
            << " peak_rss_bytes=" << out.peak_rss_bytes << "\n";
  return 0;
}

// --------------------------------------------------------------- parent

/// Launches one cell as a subprocess of this binary and parses the marker
/// line.  Dies loudly when the child fails -- a silently dropped cell
/// would make the committed JSON look complete when it is not.
CellResult run_cell_subprocess(const std::string& self, const Args& args,
                               double scale, const std::string& mode) {
  std::ostringstream cmd;
  cmd << '"' << self << '"' << " --cell --trace=" << args.trace
      << " --policy=" << args.policy << " --scale=" << scale
      << " --mode=" << mode << " --repeat=" << args.repeat;
  std::FILE* pipe = popen(cmd.str().c_str(), "r");
  if (pipe == nullptr) {
    std::cerr << "perf_scale: cannot spawn cell: " << cmd.str() << "\n";
    std::exit(1);
  }
  std::string output;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  if (status != 0) {
    std::cerr << "perf_scale: cell failed (status " << status
              << "): " << cmd.str() << "\n";
    std::exit(1);
  }

  CellResult cell;
  cell.scale = scale;
  cell.mode = mode;
  std::istringstream lines(output);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.rfind(kCellMarker, 0) != 0) continue;
    found = true;
    std::istringstream fields(line.substr(std::string(kCellMarker).size()));
    std::string kv;
    while (fields >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "trace") cell.trace = value;
      else if (key == "policy") cell.policy = value;
      else if (key == "num_osds") cell.num_osds = std::stoul(value);
      else if (key == "events_processed") cell.events_processed = std::stoull(value);
      else if (key == "completed_ops") cell.completed_ops = std::stoull(value);
      else if (key == "replay_wall_s") cell.replay_wall_s = std::stod(value);
      else if (key == "setup_wall_s") cell.setup_wall_s = std::stod(value);
      else if (key == "peak_rss_bytes") cell.peak_rss_bytes = std::stoull(value);
    }
  }
  if (!found) {
    std::cerr << "perf_scale: cell produced no result line: " << cmd.str()
              << "\noutput was:\n" << output;
    std::exit(1);
  }
  return cell;
}

void write_json(const std::vector<CellResult>& cells, const Args& args,
                std::ostream& os) {
  os << "{\n";
  os << "  \"schema\": \"edm-bench-result/1\",\n";
  os << "  \"bench\": \"perf_scale\",\n";
  os << "  \"trace\": \"" << args.trace << "\",\n";
  os << "  \"policy\": \"" << args.policy << "\",\n";
  os << "  \"repeat\": " << args.repeat << ",\n";
  os << "  \"quick\": " << (args.quick ? "true" : "false") << ",\n";
  edm::util::write_provenance_json(os, edm::util::collect_provenance(),
                                    "  ");
  os << ",\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    os << "    {\"scale\": " << c.scale << ", \"mode\": \"" << c.mode
       << "\", \"trace\": \"" << c.trace << "\", \"policy\": \"" << c.policy
       << "\", \"num_osds\": " << c.num_osds
       << ", \"events_processed\": " << c.events_processed
       << ", \"completed_ops\": " << c.completed_ops
       << ", \"replay_wall_s\": " << c.replay_wall_s
       << ", \"setup_wall_s\": " << c.setup_wall_s
       << ", \"events_per_sec\": " << c.events_per_sec()
       << ", \"peak_rss_bytes\": " << c.peak_rss_bytes << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // Headline: peak-RSS ratio materialized/streaming at the largest scale
  // that has both modes (the number the scaling claim rests on).
  double ratio = 0.0;
  double at_scale = 0.0;
  for (const CellResult& m : cells) {
    if (m.mode != "materialized" || m.peak_rss_bytes == 0) continue;
    for (const CellResult& s : cells) {
      if (s.mode != "streaming" || s.scale != m.scale) continue;
      if (s.peak_rss_bytes == 0 || m.scale < at_scale) continue;
      at_scale = m.scale;
      ratio = static_cast<double>(m.peak_rss_bytes) /
              static_cast<double>(s.peak_rss_bytes);
    }
  }
  os << "  \"summary\": {\"rss_ratio_materialized_over_streaming\": " << ratio
     << ", \"rss_ratio_at_scale\": " << at_scale << "}\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  if (args.cell) return run_cell(args);

  std::vector<double> scales = parse_scales(args.scales);
  std::vector<std::string> modes = {"materialized", "streaming"};
  if (args.quick) {
    scales = {2.0};
    modes = {"streaming"};
    args.repeat = 1;
  }

  std::vector<CellResult> results;
  for (double scale : scales) {
    for (const std::string& mode : modes) {
      results.push_back(run_cell_subprocess(argv[0], args, scale, mode));
      const CellResult& c = results.back();
      std::cerr << "perf_scale: scale " << scale << " " << mode << " "
                << static_cast<std::uint64_t>(c.events_per_sec())
                << " events/s, peak RSS " << (c.peak_rss_bytes >> 20)
                << " MiB\n";
    }
  }

  // Cross-mode determinism: the streaming and materialized replay of one
  // scale must process the same event count.
  for (const CellResult& m : results) {
    for (const CellResult& s : results) {
      if (m.scale == s.scale && m.mode != s.mode &&
          m.events_processed != s.events_processed) {
        std::cerr << "perf_scale: mode divergence at scale " << m.scale
                  << ": " << m.events_processed << " vs "
                  << s.events_processed << " events\n";
        return 1;
      }
    }
  }

  edm::util::Table table({"scale", "mode", "events", "replay(s)", "events/s",
                          "setup(s)", "peak RSS (MiB)"});
  for (const CellResult& c : results) {
    table.add_row({
        edm::util::Table::num(c.scale, 2),
        c.mode,
        std::to_string(c.events_processed),
        edm::util::Table::num(c.replay_wall_s, 3),
        edm::util::Table::num(c.events_per_sec(), 0),
        edm::util::Table::num(c.setup_wall_s, 3),
        edm::util::Table::num(static_cast<double>(c.peak_rss_bytes) /
                                  (1024.0 * 1024.0),
                              1),
    });
  }
  std::cout << "perf scale -- memory/throughput vs trace scale ("
            << args.trace << "/" << args.policy << ", best of " << args.repeat
            << ")\n";
  table.print(std::cout);
  std::cout << "\nPeak RSS is per-cell (each cell runs in a fresh "
               "subprocess).  Wall-clock numbers\nare machine-dependent; "
               "compare only against results from the same machine\n"
               "(docs/PERFORMANCE.md \"Memory\").\n";

  if (!args.out.empty()) {
    std::ofstream os(args.out);
    if (!os.is_open()) {
      std::cerr << "cannot write " << args.out << "\n";
      return 1;
    }
    write_json(results, args, os);
  }
  return 0;
}
