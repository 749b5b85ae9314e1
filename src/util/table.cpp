#include "util/table.h"

#include <cassert>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/provenance.h"

namespace edm::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::num(std::uint64_t v) { return std::to_string(v); }

std::string Table::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(precision)
     << fraction * 100.0 << "%";
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
}

void Table::write_json(std::ostream& os, const std::string& indent) const {
  auto write_row = [&](const std::vector<std::string>& row) {
    os << '[';
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ", ";
      os << '"' << provenance_json_escape(row[c]) << '"';
    }
    os << ']';
  };
  os << indent << "\"columns\": ";
  write_row(header_);
  os << ",\n" << indent << "\"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r ? ",\n" : "\n") << indent << "  ";
    write_row(rows_[r]);
  }
  if (!rows_.empty()) os << '\n' << indent;
  os << ']';
}

}  // namespace edm::util
