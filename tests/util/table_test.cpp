#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace edm::util {
namespace {

TEST(Table, PrintsHeaderAndRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(std::uint64_t{12345}), "12345");
}

TEST(Table, PctShowsSign) {
  EXPECT_EQ(Table::pct(0.25), "+25.0%");
  EXPECT_EQ(Table::pct(-0.051), "-5.1%");
}

TEST(Table, CsvBasic) {
  Table t({"x", "y"});
  t.add_row({"1", "hello"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,hello\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"c"});
  t.add_row({"a,b"});
  t.add_row({"say \"hi\""});
  std::ostringstream os;
  t.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, JsonHoldsThePrintedCells) {
  Table t({"x", "say \"hi\""});
  t.add_row({"1.50", "a\\b"});
  t.add_row({"-", "+2.0%"});
  std::ostringstream os;
  t.write_json(os, "  ");
  EXPECT_EQ(os.str(),
            "  \"columns\": [\"x\", \"say \\\"hi\\\"\"],\n"
            "  \"rows\": [\n"
            "    [\"1.50\", \"a\\\\b\"],\n"
            "    [\"-\", \"+2.0%\"]\n"
            "  ]");
}

TEST(Table, JsonOfNoRowsIsAnEmptyArray) {
  Table t({"x"});
  std::ostringstream os;
  t.write_json(os, "");
  EXPECT_EQ(os.str(), "\"columns\": [\"x\"],\n\"rows\": []");
}

TEST(Table, ColumnsAlignedToWidestCell) {
  Table t({"h"});
  t.add_row({"wide-cell-content"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);
  // Each printed row is padded to the widest cell + 2.
  std::istringstream lines(os.str());
  std::string header;
  std::getline(lines, header);
  std::string divider;
  std::getline(lines, divider);
  EXPECT_GE(divider.size(), std::string("wide-cell-content").size());
}

}  // namespace
}  // namespace edm::util
