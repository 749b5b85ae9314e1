#include "util/flags.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace edm::util {
namespace {

// Builds argv from string literals; the parser never mutates them.
std::vector<char*> make_argv(std::initializer_list<const char*> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return argv;
}

TEST(FlagParser, ParsesEveryValueKind) {
  std::string s;
  double d = 0.0;
  std::uint32_t u32 = 0;
  std::uint16_t u16 = 0;
  std::int32_t i32 = 0;
  bool b = false;
  FlagParser parser;
  parser.add_string("--name", &s, "");
  parser.add_double("--ratio", &d, "");
  parser.add_uint32("--count", &u32, "");
  parser.add_uint16("--port", &u16, "");
  parser.add_int32("--delta", &i32, "");
  parser.add_bool("--verbose", &b, "");

  auto argv = make_argv({"--name=home02", "--ratio=0.25", "--count=42",
                         "--port=8080", "--delta=-3", "--verbose"});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  EXPECT_EQ(s, "home02");
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(u16, 8080u);
  EXPECT_EQ(i32, -3);
  EXPECT_TRUE(b);
}

TEST(FlagParser, DefaultsSurviveWhenFlagsAbsent) {
  double d = 0.1;
  bool b = false;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  parser.add_bool("--csv", &b, "");
  auto argv = make_argv({});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  EXPECT_DOUBLE_EQ(d, 0.1);
  EXPECT_FALSE(b);
}

TEST(FlagParser, SeenTellsParsedFlagsFromDefaults) {
  double d = 0.5;
  double e = 0.5;
  bool b = false;
  FlagParser parser;
  parser.add_double("--at", &d, "");
  parser.add_double("--other", &e, "");
  parser.add_bool("--csv", &b, "");
  auto argv = make_argv({"--at=0.5", "--csv"});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  // A flag given its default value still counts as seen.
  EXPECT_TRUE(parser.seen("--at"));
  EXPECT_TRUE(parser.seen("--csv"));
  EXPECT_FALSE(parser.seen("--other"));
  EXPECT_FALSE(parser.seen("--unknown"));
}

TEST(FlagParser, HelpRecognised) {
  FlagParser parser;
  auto argv = make_argv({"--help"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kHelp);
  auto argv2 = make_argv({"-h"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv2.size()), argv2.data()),
            FlagParser::Result::kHelp);
}

TEST(FlagParser, UnknownOptionIsAnError) {
  double d = 0.0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"--nope=1"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("--nope"), std::string::npos);
}

TEST(FlagParser, BadNumericValueIsAnError) {
  double d = 0.0;
  std::uint32_t u = 0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  parser.add_uint32("--osds", &u, "");
  for (const char* bad : {"--scale=abc", "--scale=1.5x", "--osds=12q",
                          "--scale=", "--osds="}) {
    auto argv = make_argv({bad});
    EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
              FlagParser::Result::kError)
        << bad;
  }
}

TEST(FlagParser, PrefixNamesDoNotCollide) {
  // --trace and --trace-file / --trace-out share a prefix; matching must be
  // on the full name before '='.
  std::string trace, trace_file, trace_out;
  FlagParser parser;
  parser.add_string("--trace", &trace, "");
  parser.add_string("--trace-file", &trace_file, "");
  parser.add_string("--trace-out", &trace_out, "");
  auto argv = make_argv(
      {"--trace=home02", "--trace-file=a.bin", "--trace-out=t.json"});
  ASSERT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kOk);
  EXPECT_EQ(trace, "home02");
  EXPECT_EQ(trace_file, "a.bin");
  EXPECT_EQ(trace_out, "t.json");
}

TEST(FlagParser, BoolFlagRejectsValueForm) {
  bool b = false;
  FlagParser parser;
  parser.add_bool("--csv", &b, "");
  auto argv = make_argv({"--csv=1"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_FALSE(b);
  // The error must name the flag and say it takes no value, not claim the
  // whole argument is an unknown option.
  EXPECT_NE(parser.error().find("--csv"), std::string::npos);
  EXPECT_NE(parser.error().find("takes no value"), std::string::npos);
}

TEST(FlagParser, ValueFlagWithoutValueIsAClearError) {
  double d = 0.5;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"--scale"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("missing value for --scale"),
            std::string::npos);
  EXPECT_NE(parser.error().find("--scale=<value>"), std::string::npos);
  EXPECT_DOUBLE_EQ(d, 0.5);  // target untouched
}

TEST(FlagParser, UnknownOptionErrorPointsAtHelp) {
  double d = 0.0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"--scael=1"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("unknown option: --scael"),
            std::string::npos);
  EXPECT_NE(parser.error().find("--help"), std::string::npos);
}

TEST(FlagParser, PositionalArgumentIsRejectedDistinctly) {
  double d = 0.0;
  FlagParser parser;
  parser.add_double("--scale", &d, "");
  auto argv = make_argv({"home02"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("positional argument"), std::string::npos);
  EXPECT_NE(parser.error().find("home02"), std::string::npos);
}

TEST(FlagParser, BadValueErrorQuotesTheValue) {
  std::uint32_t u = 7;
  FlagParser parser;
  parser.add_uint32("--osds", &u, "");
  auto argv = make_argv({"--osds=12q"});
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            FlagParser::Result::kError);
  EXPECT_NE(parser.error().find("bad value for --osds: '12q'"),
            std::string::npos);
}

TEST(FlagParser, UsageListsEveryFlag) {
  double d = 0.0;
  bool b = false;
  FlagParser parser;
  parser.add_double("--scale", &d, "trace scale");
  parser.add_bool("--csv", &b, "emit CSV");
  std::ostringstream os;
  parser.print_usage(os, "bench");
  const std::string usage = os.str();
  EXPECT_NE(usage.find("--scale=<v>"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("trace scale"), std::string::npos);
}

}  // namespace
}  // namespace edm::util
