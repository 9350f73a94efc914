#include "sttram/io/table.hpp"

#include <algorithm>
#include <sstream>

#include "sttram/common/error.hpp"

namespace sttram {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  require(!headers_.empty(), "TextTable: need at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(),
          "TextTable: row arity must match the header");
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "  " << row[c]
         << std::string(widths[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << "  " << std::string(widths[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace sttram
