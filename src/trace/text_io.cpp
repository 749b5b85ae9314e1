#include "trace/text_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace edm::trace {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("text trace, line " + std::to_string(line) +
                           ": " + what);
}

}  // namespace

Trace load_text_trace(std::istream& is, const std::string& name) {
  Trace trace;
  trace.name = name;
  std::unordered_map<FileId, std::uint64_t> sizes;
  std::string line;
  std::size_t line_no = 0;
  std::uint16_t auto_client = 0;
  FileId last_file = ~FileId{0};

  while (std::getline(is, line)) {
    ++line_no;
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // blank line
    keyword = lower(keyword);

    if (keyword == "file") {
      FileId id;
      std::uint64_t size;
      if (!(fields >> id >> size)) fail(line_no, "expected: file <id> <size>");
      if (size == 0) fail(line_no, "file size must be > 0");
      if (!sizes.emplace(id, size).second) {
        fail(line_no, "duplicate file id " + std::to_string(id));
      }
      trace.files.push_back({id, size});
      continue;
    }

    Record rec;
    if (keyword == "open") {
      rec.op = OpType::kOpen;
    } else if (keyword == "close") {
      rec.op = OpType::kClose;
    } else if (keyword == "read") {
      rec.op = OpType::kRead;
    } else if (keyword == "write") {
      rec.op = OpType::kWrite;
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }

    if (!(fields >> rec.file)) fail(line_no, "missing file id");
    const auto it = sizes.find(rec.file);
    if (it == sizes.end()) {
      fail(line_no, "file " + std::to_string(rec.file) +
                        " used before its 'file' declaration");
    }
    if (rec.op == OpType::kRead || rec.op == OpType::kWrite) {
      std::uint64_t offset;
      std::uint64_t size;
      if (!(fields >> offset >> size)) {
        fail(line_no, "expected: <op> <file> <offset> <size> [client]");
      }
      const std::string bad = extent_error(offset, size, it->second);
      if (!bad.empty()) fail(line_no, bad);
      rec.offset = offset;
      rec.size = static_cast<std::uint32_t>(size);
    }
    if (std::string client; fields >> client) {
      // One decimal lane id, and nothing after it.
      const char* end = client.data() + client.size();
      const auto [ptr, ec] = std::from_chars(client.data(), end, rec.client);
      if (std::string rest; ec != std::errc{} || ptr != end || fields >> rest) {
        fail(line_no, "client must be one integer in [0, 65535], got '" +
                          client + (rest.empty() ? "" : " " + rest) + "'");
      }
    } else {
      // Round-robin lanes over runs of consecutive same-file records.
      if (rec.file != last_file) {
        auto_client = static_cast<std::uint16_t>((auto_client + 1) % 64);
      }
      rec.client = auto_client;
    }
    last_file = rec.file;
    trace.records.push_back(rec);
  }

  // The cluster requires dense 0..N-1 file ids; remap if needed.
  std::sort(trace.files.begin(), trace.files.end(),
            [](const FileSpec& a, const FileSpec& b) { return a.id < b.id; });
  bool dense = true;
  for (std::size_t i = 0; i < trace.files.size(); ++i) {
    if (trace.files[i].id != i) {
      dense = false;
      break;
    }
  }
  if (!dense) {
    std::unordered_map<FileId, FileId> remap;
    for (std::size_t i = 0; i < trace.files.size(); ++i) {
      remap[trace.files[i].id] = i;
      trace.files[i].id = i;
    }
    for (auto& rec : trace.records) rec.file = remap.at(rec.file);
  }
  return trace;
}

void save_text_trace(const Trace& trace, std::ostream& os) {
  os << "# EDM text trace: " << trace.name << "\n";
  for (const auto& f : trace.files) {
    os << "file " << f.id << ' ' << f.size_bytes << '\n';
  }
  for (const auto& r : trace.records) {
    os << to_string(r.op) << ' ' << r.file;
    if (r.op == OpType::kRead || r.op == OpType::kWrite) {
      os << ' ' << r.offset << ' ' << r.size;
    }
    os << ' ' << r.client << '\n';
  }
  if (!os) throw std::runtime_error("text trace write failed");
}

Trace load_text_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return load_text_trace(is, path);
}

void save_text_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  save_text_trace(trace, os);
}

}  // namespace edm::trace
