// Plain-text and CSV table rendering for benchmark output.
//
// Every bench binary regenerates one of the paper's tables/figures as rows
// printed to stdout; this formatter keeps them aligned and also supports CSV
// dumps for plotting and JSON for a machine-readable record of the run.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace edm::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats arithmetic cells with fixed precision.
  static std::string num(double v, int precision = 2);
  static std::string num(std::uint64_t v);
  static std::string pct(double fraction, int precision = 1);

  /// Writes an aligned plain-text rendering.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  void write_csv(std::ostream& os) const;

  /// Writes `"columns": [...]` and `"rows": [[...], ...]` as two JSON
  /// members of the caller's object (no braces, no trailing comma), each
  /// cell the string print() shows; `indent` is the caller's current
  /// indentation.
  void write_json(std::ostream& os, const std::string& indent) const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace edm::util
