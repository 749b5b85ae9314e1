#include "trace/record.h"

namespace edm::trace {

const char* to_string(OpType op) {
  switch (op) {
    case OpType::kOpen:
      return "open";
    case OpType::kClose:
      return "close";
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
  }
  return "?";
}

std::string extent_error(std::uint64_t offset, std::uint64_t size,
                         std::uint64_t file_size) {
  if (size == 0) return "request size must be > 0";
  if (size >> 32 != 0) {
    return "request size " + std::to_string(size) + " is not below 2^32";
  }
  if (size > file_size || offset > file_size - size) {
    return "request [" + std::to_string(offset) + ", +" +
           std::to_string(size) + ") exceeds file size " +
           std::to_string(file_size);
  }
  return {};
}

std::uint64_t Trace::total_file_bytes() const {
  std::uint64_t total = 0;
  for (const auto& f : files) total += f.size_bytes;
  return total;
}

TraceCharacteristics characterize(const Trace& trace) {
  TraceCharacteristics c;
  c.file_count = trace.files.size();
  for (const auto& r : trace.records) {
    switch (r.op) {
      case OpType::kOpen:
        ++c.open_count;
        break;
      case OpType::kClose:
        ++c.close_count;
        break;
      case OpType::kRead:
        ++c.read_count;
        c.total_read_bytes += r.size;
        break;
      case OpType::kWrite:
        ++c.write_count;
        c.total_write_bytes += r.size;
        break;
    }
  }
  if (c.write_count) {
    c.avg_write_size = static_cast<double>(c.total_write_bytes) /
                       static_cast<double>(c.write_count);
  }
  if (c.read_count) {
    c.avg_read_size = static_cast<double>(c.total_read_bytes) /
                      static_cast<double>(c.read_count);
  }
  return c;
}

}  // namespace edm::trace
