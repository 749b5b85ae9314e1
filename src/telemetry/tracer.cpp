#include "telemetry/tracer.h"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace edm::telemetry {

namespace {

/// JSON cannot carry NaN/inf; our instrumentation never produces them on
/// purpose, so clamp to 0 rather than emit an invalid document.
double safe(double v) { return std::isfinite(v) ? v : 0.0; }

void write_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') os << '\\';
    os << *s;
  }
  os << '"';
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kRequest:
      return "request";
    case Category::kGc:
      return "gc";
    case Category::kMigration:
      return "migration";
    case Category::kRebuild:
      return "rebuild";
    case Category::kPolicy:
      return "policy";
    case Category::kFault:
      return "fault";
  }
  return "unknown";
}

void Tracer::name_track(std::uint32_t track, const std::string& name) {
  const auto it = std::find_if(
      track_names_.begin(), track_names_.end(),
      [track](const auto& entry) { return entry.first == track; });
  if (it != track_names_.end()) return;
  track_names_.emplace_back(track, name);
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };
  // Thread-name metadata first so viewers label lanes before any event.
  for (const auto& [track, name] : track_names_) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_escaped(os, name.c_str());
    os << "}}";
  }
  for (const TraceEvent& e : events_) {
    sep();
    os << "{\"ph\":\"" << e.phase << "\",\"pid\":0,\"tid\":" << e.track
       << ",\"cat\":\"" << category_name(e.category) << "\",\"name\":";
    write_escaped(os, e.name);
    os << ",\"ts\":" << e.ts;
    if (e.phase == 'X') os << ",\"dur\":" << e.dur;
    if (e.phase == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
    if (e.num_args > 0) {
      os << ",\"args\":{";
      for (std::uint8_t a = 0; a < e.num_args; ++a) {
        if (a > 0) os << ',';
        write_escaped(os, e.arg_key[a]);
        os << ':' << safe(e.arg_val[a]);
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n]}\n";
}

}  // namespace edm::telemetry
