#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace dfv {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), align_(headers_.size(), Align::Right) {
  DFV_CHECK(!headers_.empty());
  align_[0] = Align::Left;
}

void Table::add_row(std::vector<std::string> cells) {
  DFV_CHECK_MSG(cells.size() == headers_.size(),
                "row has " << cells.size() << " cells, table has " << headers_.size()
                           << " columns");
  rows_.push_back(std::move(cells));
}

void Table::set_align(std::size_t col, Align a) {
  DFV_CHECK(col < align_.size());
  align_[col] = a;
}

std::string Table::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  auto emit_sep = [&](std::ostringstream& os) {
    os << '+';
    for (std::size_t c = 0; c < width.size(); ++c) os << std::string(width[c] + 2, '-') << '+';
    os << '\n';
  };
  auto emit_row = [&](std::ostringstream& os, const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t pad = width[c] - cells[c].size();
      if (align_[c] == Align::Left)
        os << ' ' << cells[c] << std::string(pad, ' ') << " |";
      else
        os << ' ' << std::string(pad, ' ') << cells[c] << " |";
    }
    os << '\n';
  };

  std::ostringstream os;
  emit_sep(os);
  emit_row(os, headers_);
  emit_sep(os);
  for (const auto& row : rows_) emit_row(os, row);
  emit_sep(os);
  return os.str();
}

void Table::print(std::ostream& os) const { os << str(); }

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string format_sci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace dfv
