// Build/host provenance for committed benchmark JSON and run reports.
//
// A wall-clock number is only comparable against another measured on the
// same machine with the same toolchain; the committed BENCH_scale.json and
// EXPERIMENTS.json and tools/edm_run JSON reports therefore embed where
// their numbers came from: compiler + version, build type and flags
// (injected by src/util/CMakeLists.txt as PUBLIC compile definitions), the
// CPU model, and the git commit (passed by tools/bench_*.sh via EDM_GIT_COMMIT -- the
// binary itself does not shell out to git).
//
// Fields that cannot be determined come out as "" rather than guessing.
#pragma once

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>

namespace edm::util {

struct Provenance {
  std::string compiler;    // e.g. "gcc 12.2.0"
  std::string build_type;  // CMAKE_BUILD_TYPE at configure time
  std::string cxx_flags;   // CMAKE_CXX_FLAGS at configure time
  std::string cpu_model;   // /proc/cpuinfo "model name"
  std::string commit;      // $EDM_GIT_COMMIT (set by tools/bench_*.sh)
};

inline Provenance collect_provenance() {
  Provenance p;
#if defined(__clang__)
  p.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
#ifdef EDM_BUILD_TYPE
  p.build_type = EDM_BUILD_TYPE;
#endif
#ifdef EDM_CXX_FLAGS
  p.cxx_flags = EDM_CXX_FLAGS;
#endif
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) {
      auto start = line.find_first_not_of(" \t", colon + 1);
      if (start != std::string::npos) p.cpu_model = line.substr(start);
    }
    break;
  }
  if (const char* commit = std::getenv("EDM_GIT_COMMIT")) p.commit = commit;
  return p;
}

inline std::string provenance_json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
    out.push_back(c);
  }
  return out;
}

/// Writes `"provenance": {...}` (no trailing comma/newline); `indent` is
/// the caller's current indentation.
inline void write_provenance_json(std::ostream& os, const Provenance& p,
                                  const std::string& indent) {
  os << indent << "\"provenance\": {\n"
     << indent << "  \"compiler\": \"" << provenance_json_escape(p.compiler)
     << "\",\n"
     << indent << "  \"build_type\": \""
     << provenance_json_escape(p.build_type) << "\",\n"
     << indent << "  \"cxx_flags\": \"" << provenance_json_escape(p.cxx_flags)
     << "\",\n"
     << indent << "  \"cpu_model\": \"" << provenance_json_escape(p.cpu_model)
     << "\",\n"
     << indent << "  \"commit\": \"" << provenance_json_escape(p.commit)
     << "\"\n"
     << indent << "}";
}

}  // namespace edm::util
