#include "eval/table.h"

#include <algorithm>
#include <cstdio>

#include "soteria/error.h"

namespace soteria::eval {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw core::Error(core::ErrorCode::kInvalidArgument, "Table: no headers");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw core::Error(core::ErrorCode::kInvalidArgument,
                      "Table::add_row: expected " +
                      std::to_string(headers_.size()) +
                      " cells, got " +
                      std::to_string(cells.size()));
  }
  rows_.push_back(std::move(cells));
}

std::string Table::render(const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      line += cells[c];
      line.append(widths[c] - cells[c].size(), ' ');
      if (c + 1 < cells.size()) line += "  ";
    }
    line += '\n';
    return line;
  };

  std::string out;
  if (!title.empty()) {
    out += title;
    out += '\n';
  }
  out += render_row(headers_);
  std::size_t underline = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    underline += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out.append(underline, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string format_percent(double fraction, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, fraction * 100.0);
  return buffer;
}

std::string format_double(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

}  // namespace soteria::eval
