#include "trace/io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/text_io.h"

namespace edm::trace {
namespace {

Trace sample_trace() {
  return TraceGenerator(profile_by_name("home02").scaled(0.005), 3)
      .generate();
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  save_trace(original, buffer);
  const Trace loaded = load_trace(buffer);

  EXPECT_EQ(loaded.name, original.name);
  ASSERT_EQ(loaded.files.size(), original.files.size());
  for (std::size_t i = 0; i < original.files.size(); ++i) {
    EXPECT_EQ(loaded.files[i].id, original.files[i].id);
    EXPECT_EQ(loaded.files[i].size_bytes, original.files[i].size_bytes);
  }
  ASSERT_EQ(loaded.records.size(), original.records.size());
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].file, original.records[i].file);
    EXPECT_EQ(loaded.records[i].offset, original.records[i].offset);
    EXPECT_EQ(loaded.records[i].size, original.records[i].size);
    EXPECT_EQ(loaded.records[i].op, original.records[i].op);
    EXPECT_EQ(loaded.records[i].client, original.records[i].client);
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace empty;
  empty.name = "empty";
  std::stringstream buffer;
  save_trace(empty, buffer);
  const Trace loaded = load_trace(buffer);
  EXPECT_EQ(loaded.name, "empty");
  EXPECT_TRUE(loaded.files.empty());
  EXPECT_TRUE(loaded.records.empty());
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer("NOTATRACE_______________");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedStream) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  save_trace(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_trace(truncated), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownVersion) {
  Trace empty;
  empty.name = "v";
  std::stringstream buffer;
  save_trace(empty, buffer);
  std::string bytes = buffer.str();
  bytes[8] = 99;  // version field follows the 8-byte magic
  std::stringstream bad(bytes);
  EXPECT_THROW(load_trace(bad), std::runtime_error);
}

TEST(TraceIo, FileHelpersWork) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/edm_trace_test.bin";
  save_trace_file(original, path);
  const Trace loaded = load_trace_file(path);
  EXPECT_EQ(loaded.records.size(), original.records.size());
  EXPECT_EQ(loaded.name, original.name);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/path/trace.bin"),
               std::runtime_error);
}

// Streaming writer + reader round-trip, record for record, and the bytes
// are identical to the whole-trace save_trace path (same format).
TEST(TraceIo, StreamingRoundTripMatchesWholeTracePath) {
  const Trace original = sample_trace();
  std::stringstream whole;
  save_trace(original, whole);

  std::stringstream streamed;
  {
    TraceWriter writer(streamed, original.name, original.files);
    for (const auto& r : original.records) writer.append(r);
    writer.finish();
    EXPECT_EQ(writer.records_written(), original.records.size());
  }
  EXPECT_EQ(streamed.str(), whole.str());

  TraceReader reader(streamed);
  EXPECT_EQ(reader.name(), original.name);
  EXPECT_EQ(reader.record_count(), original.records.size());
  ASSERT_EQ(reader.files().size(), original.files.size());
  Record r;
  std::size_t i = 0;
  while (reader.next(r)) {
    ASSERT_LT(i, original.records.size());
    EXPECT_EQ(r.file, original.records[i].file);
    EXPECT_EQ(r.offset, original.records[i].offset);
    EXPECT_EQ(r.size, original.records[i].size);
    EXPECT_EQ(r.op, original.records[i].op);
    EXPECT_EQ(r.client, original.records[i].client);
    ++i;
  }
  EXPECT_EQ(i, original.records.size());
  EXPECT_FALSE(reader.next(r));  // stays exhausted
}

// Chunk-boundary cases: record counts straddling the chunk size.
TEST(TraceIo, StreamingChunkBoundaries) {
  for (const std::size_t n :
       {std::size_t{0}, TraceWriter::kChunkRecords - 1,
        TraceWriter::kChunkRecords, TraceWriter::kChunkRecords + 1,
        2 * TraceWriter::kChunkRecords + 7}) {
    std::stringstream buffer;
    {
      // Every record names a file of the table (the reader checks).
      std::vector<FileSpec> files(n);
      for (std::size_t i = 0; i < n; ++i) files[i] = {i, 1 << 20};
      TraceWriter writer(buffer, "chunky", files);
      for (std::size_t i = 0; i < n; ++i) {
        writer.append({static_cast<FileId>(i), i * 17, 512, OpType::kWrite,
                       static_cast<std::uint16_t>(i % 5)});
      }
      writer.finish();
    }
    TraceReader reader(buffer);
    EXPECT_EQ(reader.record_count(), n);
    Record r;
    std::size_t i = 0;
    while (reader.next(r)) {
      EXPECT_EQ(r.file, static_cast<FileId>(i));
      EXPECT_EQ(r.offset, i * 17);
      ++i;
    }
    EXPECT_EQ(i, n) << "chunk-count " << n;
  }
}

// Error-path contract: the three corruption classes -- wrong magic,
// truncation inside the header, and a short final record chunk -- must
// produce distinct messages so a caller (or a human reading a failed
// replay log) can tell what actually broke.
std::string thrown_message(const std::string& bytes) {
  std::stringstream buffer(bytes);
  try {
    load_trace(buffer);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, BadMagicErrorIsDistinct) {
  const std::string msg = thrown_message("NOTATRACE_______________");
  EXPECT_NE(msg.find("not an EDM trace stream"), std::string::npos) << msg;
}

TEST(TraceIo, TruncatedHeaderErrorIsDistinct) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  save_trace(original, buffer);
  // Cut inside the fixed header: past the 8-byte magic, mid-version.
  const std::string msg = thrown_message(buffer.str().substr(0, 10));
  EXPECT_NE(msg.find("trace header truncated"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("not an EDM trace stream"), std::string::npos);
  EXPECT_EQ(msg.find("chunk"), std::string::npos);
}

TEST(TraceIo, ShortFinalChunkErrorIsDistinct) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  save_trace(original, buffer);
  // Drop half a record off the tail: the header (including the record
  // count) parses fine, but the last chunk comes up short.
  const std::string full = buffer.str();
  const std::string msg = thrown_message(full.substr(0, full.size() - 12));
  EXPECT_NE(msg.find("trace chunk truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("records read"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("header"), std::string::npos);
}

TEST(TraceIo, StreamingReaderRejectsTruncatedRecords) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  save_trace(original, buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() - 10));
  TraceReader reader(truncated);  // header + count parse fine
  Record r;
  EXPECT_THROW(
      {
        while (reader.next(r)) {
        }
      },
      std::runtime_error);
}

// Corrupt record fields: the replay indexes per-file tables by the file id
// and switches on the op, so the reader must stop a bad value with an error
// that names the record and the value.

/// One 1 MiB file plus open / read / close; the read carries `file` and
/// `op_byte`.
std::string one_file_trace(FileId file, std::uint8_t op_byte) {
  std::stringstream buffer;
  TraceWriter writer(buffer, "one", {{0, 1 << 20}});
  writer.append({0, 0, 0, OpType::kOpen, 0});
  writer.append({file, 4096, 4096, static_cast<OpType>(op_byte), 0});
  writer.append({0, 0, 0, OpType::kClose, 0});
  writer.finish();
  return buffer.str();
}

TEST(TraceIo, AcceptsRecordsOfTheFileTable) {
  std::stringstream buffer(
      one_file_trace(0, static_cast<std::uint8_t>(OpType::kWrite)));
  const Trace trace = load_trace(buffer);
  ASSERT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.records[1].op, OpType::kWrite);
}

TEST(TraceIo, RejectsRecordNamingFileOutsideTheTable) {
  for (const FileId file : {FileId{3}, FileId{1} << 40}) {
    const std::string msg = thrown_message(
        one_file_trace(file, static_cast<std::uint8_t>(OpType::kRead)));
    EXPECT_NE(msg.find("trace record 1 "), std::string::npos) << msg;
    EXPECT_NE(msg.find("file " + std::to_string(file)), std::string::npos)
        << msg;
  }
}

TEST(TraceIo, RejectsRecordWithUnknownOpByte) {
  for (const std::uint8_t op : {4, 255}) {
    const std::string msg = thrown_message(one_file_trace(0, op));
    EXPECT_NE(msg.find("trace record 1 "), std::string::npos) << msg;
    EXPECT_NE(msg.find("op byte " + std::to_string(op)), std::string::npos)
        << msg;
  }
}

/// One 1 MiB file plus open / op / close, the op over [offset, +size).
std::string one_extent_trace(OpType op, std::uint64_t offset,
                             std::uint32_t size) {
  std::stringstream buffer;
  TraceWriter writer(buffer, "one", {{0, 1 << 20}});
  writer.append({0, 0, 0, OpType::kOpen, 0});
  writer.append({0, offset, size, op, 0});
  writer.append({0, 0, 0, OpType::kClose, 0});
  writer.finish();
  return buffer.str();
}

TEST(TraceIo, RejectsBadExtentsNamingTheRecord) {
  struct Case {
    std::uint64_t offset;
    std::uint32_t size;
    const char* what;
  };
  for (const OpType op : {OpType::kRead, OpType::kWrite}) {
    for (const Case& c :
         {Case{4096, 0, "must be > 0"},
          Case{std::uint64_t{1} << 40, 4096, "exceeds file size 1048576"},
          Case{(1 << 20) - 4095, 4096, "exceeds file size 1048576"},
          Case{0, 0xFFFFFFFFu, "exceeds file size 1048576"},
          // offset + size wraps to 1, inside the file.
          Case{~std::uint64_t{0}, 2, "exceeds file size 1048576"}}) {
      const std::string msg =
          thrown_message(one_extent_trace(op, c.offset, c.size));
      EXPECT_NE(msg.find("trace record 1: "), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
    }
  }
}

TEST(TraceIo, AcceptsAnExtentEndingAtTheEndOfItsFile) {
  std::stringstream buffer(
      one_extent_trace(OpType::kWrite, (1 << 20) - 4096, 4096));
  const Trace trace = load_trace(buffer);
  ASSERT_EQ(trace.records.size(), 3u);
  EXPECT_EQ(trace.records[1].offset, (1u << 20) - 4096);
}

TEST(TraceIo, CorruptRecordCountFailsAsTruncationNotAllocation) {
  std::string bytes =
      one_file_trace(0, static_cast<std::uint8_t>(OpType::kRead));
  // The record count follows magic, version, name length, the 3-byte name,
  // the file count and one 16-byte file entry.
  const std::size_t count_at = 8 + 4 + 4 + 3 + 8 + 16;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + count_at, sizeof(count));
  ASSERT_EQ(count, 3u);
  count = std::uint64_t{1} << 50;
  std::memcpy(bytes.data() + count_at, &count, sizeof(count));
  const std::string msg = thrown_message(bytes);  // not std::bad_alloc
  EXPECT_NE(msg.find("trace chunk truncated"), std::string::npos) << msg;
}

std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream os(path, std::ios::binary);
  os << bytes;
  return path;
}

TEST(TraceIo, LoadAnyPicksTheFormatByMagic) {
  const Trace original = sample_trace();
  const std::string bin = ::testing::TempDir() + "/edm_any_trace.bin";
  save_trace_file(original, bin);
  EXPECT_EQ(load_any_trace_file(bin).records.size(), original.records.size());

  const std::string text = write_temp("edm_any_trace.txt",
                                      "file 0 4096\nopen 0\nread 0 0 512\n");
  const Trace parsed = load_any_trace_file(text);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[1].op, OpType::kRead);
}

// A damaged binary trace reports the binary error; it is not re-parsed as
// text (which would bury the cause under a text parse error).
TEST(TraceIo, LoadAnyKeepsTheBinaryError) {
  const std::string path =
      write_temp("edm_any_bad.bin",
                 one_file_trace(FileId{1} << 40,
                                static_cast<std::uint8_t>(OpType::kRead)));
  try {
    load_any_trace_file(path);
    ADD_FAILURE() << "a record outside the file table was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("not in the file table"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("text trace"), std::string::npos) << msg;
  }
  EXPECT_THROW(load_any_trace_file("/nonexistent/path/trace.any"),
               std::runtime_error);
}

}  // namespace
}  // namespace edm::trace
