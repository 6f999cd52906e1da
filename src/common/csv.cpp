#include "common/csv.hpp"

#include <sstream>

#include "common/check.hpp"

namespace dfv {

namespace {

bool needs_quoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

void emit_cell(std::ostream& os, const std::string& s) {
  if (!needs_quoting(s)) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

void emit_row(std::ostream& os, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i) os << ',';
    emit_cell(os, row[i]);
  }
  os << '\n';
}

}  // namespace

std::size_t Csv::col(const std::string& name, bool optional) const {
  for (std::size_t i = 0; i < header.size(); ++i)
    if (header[i] == name) return i;
  DFV_CHECK_MSG(optional, "no CSV column named '" << name << "'");
  return npos;
}

std::string Csv::str() const {
  std::ostringstream os;
  emit_row(os, header);
  for (const auto& r : rows) emit_row(os, r);
  return os.str();
}

Csv parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> all;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;

  auto end_cell = [&] {
    row.push_back(std::move(cell));
    cell.clear();
  };
  auto end_row = [&] {
    end_cell();
    all.push_back(std::move(row));
    row.clear();
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_cell();
        row_has_content = true;
        break;
      case '\r':
        break;
      case '\n':
        DFV_CHECK_MSG(!in_quotes, "CSV ends inside a quoted field (truncated input?)");
  if (row_has_content || !cell.empty() || !row.empty()) end_row();
        break;
      default:
        cell += c;
        row_has_content = true;
        break;
    }
  }
  DFV_CHECK_MSG(!in_quotes, "CSV ends inside a quoted field (truncated input?)");
  if (row_has_content || !cell.empty() || !row.empty()) end_row();

  Csv csv;
  if (!all.empty()) {
    csv.header = std::move(all.front());
    csv.rows.assign(std::make_move_iterator(all.begin() + 1),
                    std::make_move_iterator(all.end()));
  }
  return csv;
}

}  // namespace dfv
