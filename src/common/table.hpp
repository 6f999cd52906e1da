// ASCII table rendering for benchmark harnesses: every bench binary
// regenerates a paper table/figure as plain-text rows, so the output
// format lives in one place.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dfv {

/// Column alignment for Table cells.
enum class Align { Left, Right };

/// Simple column-oriented ASCII table.
///
/// Usage:
///   Table t({"app", "nodes", "mean (s)"});
///   t.add_row({"AMG", "128", format_double(12.3)});
///   std::cout << t.str();
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void set_align(std::size_t col, Align a);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return headers_.size(); }

  /// Render with box-drawing separators.
  [[nodiscard]] std::string str() const;
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> align_;
};

/// Format a double with fixed precision, trimming to a compact width.
[[nodiscard]] std::string format_double(double v, int precision = 3);

/// Format a double in engineering style (e.g. 1.2e+08) for counters.
[[nodiscard]] std::string format_sci(double v, int precision = 2);

}  // namespace dfv
