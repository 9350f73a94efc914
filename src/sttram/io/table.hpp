// Aligned text / Markdown table rendering for bench output.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sttram {

/// A simple column-aligned table builder.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Renders with aligned columns and a header underline.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sttram
