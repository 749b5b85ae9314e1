#include "trace/io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "trace/text_io.h"

namespace edm::trace {

namespace {

constexpr char kMagic[8] = {'E', 'D', 'M', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRecordWireBytes = 24;  // 8+8+4+1+2+1 (pad)
// load_trace reserves the header's record count only up to this many
// records (24 MiB); a larger trace grows its vector as records arrive, so a
// corrupt count fails as truncation, not as one huge allocation.
constexpr std::uint64_t kMaxReserveRecords = std::uint64_t{1} << 20;

template <typename T>
void put(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Header reads: a short read here means the file ends inside the fixed
// metadata (magic already checked), which is a different failure from a
// short record chunk -- keep the messages distinct so callers can tell
// "not even a complete header" from "records missing at the tail".
template <typename T>
T get(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("trace header truncated");
  return value;
}

template <typename T>
void encode(char*& p, const T& value) {
  std::memcpy(p, &value, sizeof(T));
  p += sizeof(T);
}

template <typename T>
T decode(const char*& p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  p += sizeof(T);
  return value;
}

}  // namespace

// ----------------------------------------------------------- TraceWriter

TraceWriter::TraceWriter(std::ostream& os, const std::string& name,
                         const std::vector<FileSpec>& files)
    : os_(os) {
  buf_.reserve(kChunkRecords * kRecordWireBytes);
  os_.write(kMagic, sizeof(kMagic));
  put(os_, kVersion);
  const auto name_len = static_cast<std::uint32_t>(name.size());
  put(os_, name_len);
  os_.write(name.data(), name_len);

  put(os_, static_cast<std::uint64_t>(files.size()));
  for (const auto& f : files) {
    put(os_, f.id);
    put(os_, f.size_bytes);
  }
  // Record count is unknown until finish(); write a placeholder and
  // remember where to backpatch it.
  count_pos_ = os_.tellp();
  put(os_, std::uint64_t{0});
  if (!os_) throw std::runtime_error("trace write failed");
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; call finish() explicitly to see errors.
  }
}

void TraceWriter::append(const Record& r) {
  const std::size_t at = buf_.size();
  buf_.resize(at + kRecordWireBytes);
  char* p = buf_.data() + at;
  encode(p, r.file);
  encode(p, r.offset);
  encode(p, r.size);
  encode(p, static_cast<std::uint8_t>(r.op));
  encode(p, r.client);
  encode(p, std::uint8_t{0});  // pad
  ++records_written_;
  if (buf_.size() >= kChunkRecords * kRecordWireBytes) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (buf_.empty()) return;
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
  if (!os_) throw std::runtime_error("trace write failed");
}

void TraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  flush_chunk();
  const std::streampos end = os_.tellp();
  os_.seekp(count_pos_);
  put(os_, records_written_);
  os_.seekp(end);
  os_.flush();
  if (!os_) throw std::runtime_error("trace write failed");
}

// ----------------------------------------------------------- TraceReader

TraceReader::TraceReader(std::istream& is) : is_(is) {
  char magic[8];
  is_.read(magic, sizeof(magic));
  if (!is_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not an EDM trace stream");
  }
  const auto version = get<std::uint32_t>(is_);
  if (version != kVersion) {
    throw std::runtime_error("unsupported trace version " +
                             std::to_string(version));
  }
  const auto name_len = get<std::uint32_t>(is_);
  name_.resize(name_len);
  is_.read(name_.data(), name_len);
  if (!is_) throw std::runtime_error("trace header truncated");

  const auto file_count = get<std::uint64_t>(is_);
  files_.reserve(file_count);
  for (std::uint64_t i = 0; i < file_count; ++i) {
    FileSpec f;
    f.id = get<FileId>(is_);
    f.size_bytes = get<std::uint64_t>(is_);
    files_.push_back(f);
    file_sizes_.emplace(f.id, f.size_bytes);
  }
  record_count_ = get<std::uint64_t>(is_);
  buf_.resize(TraceWriter::kChunkRecords * kRecordWireBytes);
}

void TraceReader::refill() {
  const std::uint64_t remaining = record_count_ - records_read_;
  const std::size_t want =
      static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, TraceWriter::kChunkRecords)) *
      kRecordWireBytes;
  is_.read(buf_.data(), static_cast<std::streamsize>(want));
  const auto got = static_cast<std::size_t>(is_.gcount());
  if (got != want) {
    // Distinct from the header error: the header promised record_count_
    // records but the chunk stream ran out early (truncated tail or a
    // short final chunk).
    throw std::runtime_error(
        "trace chunk truncated: expected " + std::to_string(want) +
        " bytes, got " + std::to_string(got) + " (" +
        std::to_string(records_read_) + "/" + std::to_string(record_count_) +
        " records read)");
  }
  buf_pos_ = 0;
  buf_len_ = want;
}

bool TraceReader::next(Record& out) {
  if (records_read_ >= record_count_) return false;
  if (buf_pos_ >= buf_len_) refill();
  const char* p = buf_.data() + buf_pos_;
  out.file = decode<FileId>(p);
  out.offset = decode<std::uint64_t>(p);
  out.size = decode<std::uint32_t>(p);
  const auto op = decode<std::uint8_t>(p);
  out.client = decode<std::uint16_t>(p);
  (void)decode<std::uint8_t>(p);  // pad
  // The replay indexes per-file tables by these fields, so a corrupt value
  // must stop here, not read past a table later.
  const auto file = file_sizes_.find(out.file);
  if (file == file_sizes_.end()) {
    throw std::runtime_error("trace record " + std::to_string(records_read_) +
                             " names file " + std::to_string(out.file) +
                             ", which is not in the file table");
  }
  if (op > static_cast<std::uint8_t>(OpType::kWrite)) {
    throw std::runtime_error("trace record " + std::to_string(records_read_) +
                             " has op byte " + std::to_string(op) +
                             " (expected 0-3)");
  }
  out.op = static_cast<OpType>(op);
  // Cluster::map_request would clamp a range past the file's end, so a
  // corrupt extent would replay different I/O without a word.
  if (out.op == OpType::kRead || out.op == OpType::kWrite) {
    const std::string bad = extent_error(out.offset, out.size, file->second);
    if (!bad.empty()) {
      throw std::runtime_error(
          "trace record " + std::to_string(records_read_) + ": " + bad);
    }
  }
  buf_pos_ += kRecordWireBytes;
  ++records_read_;
  return true;
}

// ------------------------------------------------- whole-trace wrappers

void save_trace(const Trace& trace, std::ostream& os) {
  TraceWriter writer(os, trace.name, trace.files);
  for (const auto& r : trace.records) writer.append(r);
  writer.finish();
}

Trace load_trace(std::istream& is) {
  TraceReader reader(is);
  Trace trace;
  trace.name = reader.name();
  trace.files = reader.files();
  trace.records.reserve(static_cast<std::size_t>(
      std::min(reader.record_count(), kMaxReserveRecords)));
  Record r;
  while (reader.next(r)) trace.records.push_back(r);
  return trace;
}

void save_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_trace(trace, os);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_trace(is);
}

Trace load_any_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  char magic[sizeof(kMagic)] = {};
  is.read(magic, sizeof(magic));
  if (is.gcount() == sizeof(magic) &&
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
    is.seekg(0);
    return load_trace(is);
  }
  return load_text_trace_file(path);
}

}  // namespace edm::trace
