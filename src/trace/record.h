// Trace model: the unit of replay is an NFS-style record stream over a
// population of pre-created files, mirroring the paper's Harvard traces
// (write / read / open / close operations extracted per SIV).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace edm::trace {

enum class OpType : std::uint8_t { kOpen = 0, kClose = 1, kRead = 2, kWrite = 3 };

const char* to_string(OpType op);

struct Record {
  FileId file = 0;
  std::uint64_t offset = 0;  // byte offset within the file
  std::uint32_t size = 0;    // bytes; 0 for open/close
  OpType op = OpType::kOpen;
  std::uint16_t client = 0;  // issuing client (trace replay lane)
};

/// Pre-created file population ("all files related in the trace file are
/// pre-created and populated with sufficient data" -- paper SIV).
struct FileSpec {
  FileId id = 0;
  std::uint64_t size_bytes = 0;
};

/// What is wrong with a read/write of [offset, offset + size) in a file of
/// `file_size` bytes, or "" if nothing: the size must be in [1, 2^32) and
/// the range must end inside the file (checked without overflow).  Both
/// trace readers prefix it with the record index or line number.
std::string extent_error(std::uint64_t offset, std::uint64_t size,
                         std::uint64_t file_size);

struct Trace {
  std::string name;
  std::vector<FileSpec> files;
  std::vector<Record> records;

  std::uint64_t total_file_bytes() const;
};

/// Aggregate characteristics in the shape of the paper's Table I.
struct TraceCharacteristics {
  std::uint64_t file_count = 0;
  std::uint64_t write_count = 0;
  double avg_write_size = 0.0;
  std::uint64_t read_count = 0;
  double avg_read_size = 0.0;
  std::uint64_t open_count = 0;
  std::uint64_t close_count = 0;
  std::uint64_t total_write_bytes = 0;
  std::uint64_t total_read_bytes = 0;
};

TraceCharacteristics characterize(const Trace& trace);

}  // namespace edm::trace
