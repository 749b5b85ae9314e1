#include "spans.h"

#include "util/provenance.h"

namespace perfbench {

void SpanLog::write_json(std::ostream& os) const {
  const auto old_precision = os.precision(9);
  os << "{\"run\": \"" << edm::util::provenance_json_escape(run_id_)
     << "\", \"clock\": \"host steady_clock, seconds since the run began\""
     << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
       << edm::util::provenance_json_escape(s.name)
       << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"parent\": " << s.parent << "}";
  }
  os << "\n]}\n";
  os.precision(old_precision);
}

}  // namespace perfbench
