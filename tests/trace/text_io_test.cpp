#include "trace/text_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "trace/generator.h"
#include "trace/profile.h"

namespace edm::trace {
namespace {

TEST(TextIo, ParsesBasicFormat) {
  std::istringstream in(R"(# a tiny trace
file 0 65536
file 1 131072

open 0 3
write 0 0 4096 3
read 0 4096 8192 3
close 0 3
read 1 0 4096
)");
  const Trace t = load_text_trace(in, "tiny");
  EXPECT_EQ(t.name, "tiny");
  ASSERT_EQ(t.files.size(), 2u);
  EXPECT_EQ(t.files[1].size_bytes, 131072u);
  ASSERT_EQ(t.records.size(), 5u);
  EXPECT_EQ(t.records[0].op, OpType::kOpen);
  EXPECT_EQ(t.records[0].client, 3u);
  EXPECT_EQ(t.records[1].op, OpType::kWrite);
  EXPECT_EQ(t.records[1].size, 4096u);
  EXPECT_EQ(t.records[2].offset, 4096u);
  EXPECT_EQ(t.records[4].file, 1u);
}

TEST(TextIo, CaseInsensitiveKeywords) {
  std::istringstream in("file 0 8192\nREAD 0 0 4096\nWrite 0 0 512\n");
  const Trace t = load_text_trace(in);
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[0].op, OpType::kRead);
  EXPECT_EQ(t.records[1].op, OpType::kWrite);
}

TEST(TextIo, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "\n# header\nfile 0 8192  # trailing comment\n\nread 0 0 512\n");
  const Trace t = load_text_trace(in);
  EXPECT_EQ(t.records.size(), 1u);
}

TEST(TextIo, RejectsMalformedInput) {
  auto expect_fail = [](const std::string& body, const char* what) {
    std::istringstream in(body);
    EXPECT_THROW(load_text_trace(in), std::runtime_error) << what;
  };
  expect_fail("bogus 1 2 3\n", "unknown keyword");
  expect_fail("file 0\n", "missing size");
  expect_fail("file 0 0\n", "zero size");
  expect_fail("file 0 100\nfile 0 200\n", "duplicate file");
  expect_fail("read 0 0 4096\n", "undeclared file");
  expect_fail("file 0 8192\nread 0 8000 4096\n", "beyond eof");
  expect_fail("file 0 8192\nwrite 0 0 0\n", "zero-size request");
  expect_fail("file 0 8192\nwrite 0 0\n", "missing size field");
}

/// The message load_text_trace throws for `body`, or "" if it parses.
std::string parse_error(const std::string& body) {
  std::istringstream in(body);
  try {
    load_text_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TextIo, RejectsBadExtentsNamingTheLine) {
  struct Case {
    const char* body;
    const char* line;
    const char* what;
  };
  for (const Case& c : {
           // offset + size wraps to 1, inside the file.
           Case{"file 0 1048576\nread 0 18446744073709551615 2\n", "line 2:",
                "exceeds file size 1048576"},
           // 2^32 + 4096 fits the 8 GiB file but not Record::size, which
           // would keep only the 4096.
           Case{"file 0 8589934592\n\nwrite 0 0 4294971392\n", "line 3:",
                "not below 2^32"},
           Case{"file 0 8192\nopen 0\nread 0 0 0\n", "line 3:",
                "must be > 0"},
           Case{"file 0 8192\nwrite 0 4097 4096\n", "line 2:",
                "exceeds file size 8192"}}) {
    const std::string msg = parse_error(c.body);
    EXPECT_NE(msg.find(c.line), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
  }
}

TEST(TextIo, AcceptsExtentsThatEndAtTheEndOfTheFile) {
  std::istringstream in(
      "file 0 8192\nread 0 4096 4096\n"
      "file 1 8589934592\nwrite 1 4294967296 4294967295\n");
  const Trace t = load_text_trace(in);
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[0].offset, 4096u);
  EXPECT_EQ(t.records[1].size, 4294967295u);
}

TEST(TextIo, SparseFileIdsAreRemappedDense) {
  std::istringstream in(
      "file 10 8192\nfile 42 8192\nread 42 0 512\nwrite 10 0 512\n");
  const Trace t = load_text_trace(in);
  ASSERT_EQ(t.files.size(), 2u);
  EXPECT_EQ(t.files[0].id, 0u);
  EXPECT_EQ(t.files[1].id, 1u);
  EXPECT_EQ(t.records[0].file, 1u);  // 42 -> 1
  EXPECT_EQ(t.records[1].file, 0u);  // 10 -> 0
}

TEST(TextIo, AutoClientAssignsLanes) {
  std::istringstream in(
      "file 0 8192\nfile 1 8192\nread 0 0 512\nread 0 0 512\nread 1 0 512\n");
  const Trace t = load_text_trace(in);
  // Consecutive same-file records share a lane; the file switch rotates.
  EXPECT_EQ(t.records[0].client, t.records[1].client);
  EXPECT_NE(t.records[1].client, t.records[2].client);
}

TEST(TextIo, RoundTripsGeneratedTrace) {
  const Trace original =
      TraceGenerator(profile_by_name("home02").scaled(0.002), 3).generate();
  std::stringstream buffer;
  save_text_trace(original, buffer);
  const Trace loaded = load_text_trace(buffer, original.name);
  ASSERT_EQ(loaded.records.size(), original.records.size());
  ASSERT_EQ(loaded.files.size(), original.files.size());
  for (std::size_t i = 0; i < original.records.size(); ++i) {
    ASSERT_EQ(loaded.records[i].op, original.records[i].op) << i;
    ASSERT_EQ(loaded.records[i].file, original.records[i].file) << i;
    ASSERT_EQ(loaded.records[i].offset, original.records[i].offset) << i;
    ASSERT_EQ(loaded.records[i].size, original.records[i].size) << i;
    ASSERT_EQ(loaded.records[i].client, original.records[i].client) << i;
  }
}

TEST(TextIo, FileHelpers) {
  const std::string path = ::testing::TempDir() + "/edm_text_trace.txt";
  Trace t;
  t.name = "x";
  t.files.push_back({0, 8192});
  t.records.push_back({0, 0, 512, OpType::kWrite, 1});
  save_text_trace_file(t, path);
  const Trace loaded = load_text_trace_file(path);
  EXPECT_EQ(loaded.records.size(), 1u);
  EXPECT_THROW(load_text_trace_file("/nonexistent/x.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace edm::trace
