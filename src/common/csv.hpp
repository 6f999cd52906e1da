// Minimal CSV text format used to export campaign datasets so they can be
// inspected outside the benchmarks (the paper's datasets are tabular).
#pragma once

#include <string>
#include <vector>

namespace dfv {

/// In-memory CSV document: a header row plus string cells.
struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Column index for a header name; an absent column throws
  /// ContractError, or gives npos when `optional`.
  [[nodiscard]] std::size_t col(const std::string& name, bool optional = false) const;
  static constexpr std::size_t npos = std::size_t(-1);
  [[nodiscard]] std::string str() const;
};

/// Parse from a string. Handles quoted fields with embedded commas/quotes;
/// throws ContractError when the text ends inside a quoted field.
[[nodiscard]] Csv parse_csv(const std::string& text);

}  // namespace dfv
