// Binary (de)serialisation of traces, so expensive generated traces can be
// cached on disk and shared between bench binaries.
//
// Format (little-endian, fixed-width):
//   magic "EDMTRACE" (8 bytes) | version u32 | name_len u32 | name bytes
//   file_count u64 | { id u64, size u64 } * file_count
//   record_count u64 | { file u64, offset u64, size u32, op u8, client u16,
//                        pad u8 } * record_count
//
// Two access styles share the format:
//  * save_trace / load_trace -- whole-trace convenience (materialised).
//  * TraceWriter / TraceReader -- chunked streaming: records are appended /
//    pulled one at a time through a fixed-size chunk buffer, so a trace of
//    any length round-trips in O(chunk) memory.  save_trace/load_trace are
//    implemented on top of them (one code path, no format drift).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.h"

namespace edm::trace {

/// Writes `trace` to the stream.  Throws std::runtime_error on I/O failure.
void save_trace(const Trace& trace, std::ostream& os);

/// Reads a trace written by save_trace.  Throws std::runtime_error on a
/// malformed stream (bad magic, truncated payload, unknown version).
Trace load_trace(std::istream& is);

/// File-path convenience wrappers.
void save_trace_file(const Trace& trace, const std::string& path);
Trace load_trace_file(const std::string& path);

/// Loads `path` as a binary trace if it starts with the binary magic, else
/// as a text trace (trace/text_io.h).  The chosen format's error
/// propagates: a damaged binary trace is never re-parsed as text.
Trace load_any_trace_file(const std::string& path);

/// Streaming writer: header and file table up front, records appended one
/// at a time through a chunk buffer.  The record count is backpatched on
/// finish(), so the target stream must be seekable (a file is).
class TraceWriter {
 public:
  /// Number of records buffered before a chunk is flushed.
  static constexpr std::size_t kChunkRecords = 4096;

  /// Writes the header + file table immediately.  The stream must outlive
  /// the writer and remain seekable until finish().
  TraceWriter(std::ostream& os, const std::string& name,
              const std::vector<FileSpec>& files);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one record (buffered; flushed per chunk).
  void append(const Record& r);

  /// Flushes the tail chunk and backpatches the record count.  Idempotent;
  /// called by the destructor if not called explicitly, but call it
  /// yourself to observe I/O errors (the destructor swallows them).
  void finish();

  std::uint64_t records_written() const { return records_written_; }

 private:
  void flush_chunk();

  std::ostream& os_;
  std::vector<char> buf_;
  std::uint64_t records_written_ = 0;
  std::streampos count_pos_;
  bool finished_ = false;
};

/// Streaming reader: pulls records one at a time through a chunk buffer.
/// Memory is O(file table + chunk) regardless of trace length.
class TraceReader {
 public:
  /// Reads and validates the header + file table immediately.  The stream
  /// must outlive the reader.
  explicit TraceReader(std::istream& is);

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<FileSpec>& files() const { return files_; }
  std::uint64_t record_count() const { return record_count_; }

  /// Reads the next record into `out`; returns false at end of trace.
  /// Throws std::runtime_error on a truncated stream, and on a record whose
  /// file id is not in the file table, whose op byte is not an OpType, or
  /// (reads and writes) whose byte range fails extent_error(); the message
  /// names the record's index and the bad value.
  bool next(Record& out);

 private:
  void refill();

  std::istream& is_;
  std::string name_;
  std::vector<FileSpec> files_;
  std::unordered_map<FileId, std::uint64_t> file_sizes_;  // record checks
  std::uint64_t record_count_ = 0;
  std::uint64_t records_read_ = 0;
  std::vector<char> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
};

}  // namespace edm::trace
