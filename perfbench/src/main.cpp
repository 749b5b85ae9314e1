// edm_perfbench: the replay benchmark's measuring program (README.md).
//
//   edm_perfbench --workload=<name> [--seed=1] [--seconds=10]
//                 [--mode=plain|traced] [--spans-out=FILE.json]
//
// Prints one JSON object as the last line of stdout.  perfbench/run.py
// builds this program and turns that line into the benchmark's result.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/flags.h"
#include "util/provenance.h"

namespace {

// Generated inputs per run (perfbench::input_set).  What a trace makes the
// monitor plan and move differs from input to input (one trace swung
// write-monitor's throughput by ~12% at scale 1); the timed cells cycle
// through sixteen, so no few traces set the median.
constexpr std::uint32_t kInputsPerRun = 16;

struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  std::string mode = "plain";
  std::string spans_out;
};

/// Host-clock numbers from a Debug or sanitizer build measure the
/// instrumentation, not the simulator; returns why a build is unfit ("" =
/// fit to time).
std::string unfit_for_timing(const edm::util::Provenance& p) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  if (p.build_type == "Debug") return "Debug build";
  if (p.cxx_flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer flags (" + p.cxx_flags + ")";
  }
  return "";
}

std::string provenance_json(const edm::util::Provenance& p) {
  auto str = [](const std::string& s) {
    return "\"" + edm::util::provenance_json_escape(s) + "\"";
  };
  std::ostringstream os;
  os << "{\"compiler\": " << str(p.compiler)
     << ", \"build_type\": " << str(p.build_type)
     << ", \"cxx_flags\": " << str(p.cxx_flags)
     << ", \"cpu_model\": " << str(p.cpu_model)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"commit\": " << str(p.commit) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  edm::util::FlagParser parser;
  parser.add_string("--workload", &args.workload,
                    "read-midpoint | write-monitor | openloop-failslow");
  parser.add_uint32("--seed", &args.seed,
                    "input seed (trace_seed_offset and arrival_seed)");
  parser.add_double("--seconds", &args.seconds,
                    "host-time budget for the repeated cells");
  parser.add_string("--mode", &args.mode,
                    "plain (end-to-end metrics) | traced (per-layer)");
  parser.add_string("--spans-out", &args.spans_out,
                    "traced mode: write the span log here at exit");
  switch (parser.parse(argc, argv)) {
    case edm::util::FlagParser::Result::kOk:
      break;
    case edm::util::FlagParser::Result::kHelp:
      parser.print_usage(std::cerr, argv[0]);
      return 0;
    case edm::util::FlagParser::Result::kError:
      std::cerr << "edm_perfbench: " << parser.error() << "\n";
      parser.print_usage(std::cerr, argv[0]);
      return 2;
  }
  if (args.mode != "plain" && args.mode != "traced") {
    std::cerr << "edm_perfbench: --mode must be plain or traced\n";
    return 2;
  }

  const edm::util::Provenance provenance = edm::util::collect_provenance();
  if (const std::string why = unfit_for_timing(provenance); !why.empty()) {
    std::cerr << "edm_perfbench: refusing to time a " << why
              << "; configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n";
    return 2;
  }

  std::vector<perfbench::Workload> inputs;
  try {
    inputs = perfbench::input_set(args.workload, /*scale=*/0.0, args.seed,
                                  kInputsPerRun);
  } catch (const std::exception& e) {
    std::cerr << "edm_perfbench: " << e.what() << "\n";
    return 2;
  }

  perfbench::RunOptions options;
  options.seconds = args.seconds;
  perfbench::Report report;
  if (args.mode == "plain") {
    report = perfbench::run_plain(inputs, options);
  } else {
    // The traced run measures the set's first input.
    perfbench::SpanLog spans(args.workload + "/seed" +
                             std::to_string(args.seed) + "/traced");
    report = perfbench::run_traced(inputs.front(), options, &spans);
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      if (!out) {
        std::cerr << "edm_perfbench: cannot write " << args.spans_out << "\n";
        return 1;
      }
      spans.write_json(out);
    }
  }
  report.seed = args.seed;
  for (const std::string& failure : report.failures) {
    std::cerr << "edm_perfbench: FAILED " << failure << "\n";
  }
  std::cout << perfbench::to_json(report, provenance_json(provenance))
            << std::endl;
  return 0;
}
