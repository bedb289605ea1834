#include "eval/table.h"

#include <gtest/gtest.h>

#include "expect_error.h"

namespace soteria::eval {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"a-much-longer-name", "22"});
  const auto text = table.render("Title");
  EXPECT_NE(text.find("Title\n"), std::string::npos);
  EXPECT_NE(text.find("Name"), std::string::npos);
  EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
  // Header underline present.
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2U);
}

TEST(Table, RenderWithoutTitle) {
  Table table({"X"});
  table.add_row({"1"});
  const auto text = table.render();
  EXPECT_EQ(text.find("Title"), std::string::npos);
  EXPECT_EQ(text.front(), 'X');
}

TEST(Table, Validation) {
  EXPECT_ERROR(Table({}), core::ErrorCode::kInvalidArgument);
  Table table({"A", "B"});
  EXPECT_ERROR(table.add_row({"only-one"}), core::ErrorCode::kInvalidArgument);
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.9779), "97.79");
  EXPECT_EQ(format_percent(1.0, 1), "100.0");
  EXPECT_EQ(format_percent(0.0), "0.00");
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace soteria::eval
