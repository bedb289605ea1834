// ASCII table rendering for the bench harnesses that regenerate the
// paper's tables.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace soteria::eval {

/// Simple column-aligned text table.
class Table {
 public:
  /// Creates a table with the given column headers. Throws
  /// core::Error{kInvalidArgument} if no headers are given.
  explicit Table(std::vector<std::string> headers);

  /// Appends a row. Throws core::Error{kInvalidArgument} if the cell count does
  /// not match the header count.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const noexcept {
    return rows_.size();
  }

  /// Renders with column alignment, a header underline, and `title` on
  /// the first line when non-empty.
  [[nodiscard]] std::string render(const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` as a fixed-precision string ("97.79").
[[nodiscard]] std::string format_percent(double fraction, int decimals = 2);

/// Formats a plain double.
[[nodiscard]] std::string format_double(double value, int decimals = 3);

}  // namespace soteria::eval
