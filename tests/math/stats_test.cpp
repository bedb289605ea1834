#include "math/stats.h"

#include <gtest/gtest.h>

#include <vector>

#include "expect_error.h"

namespace soteria::math {
namespace {

TEST(Stats, MeanBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, StddevIsPopulation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, StddevDegenerateCases) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{3.0, 3.0, 3.0}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
  EXPECT_ERROR((void)min(std::vector<double>{}),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)max(std::vector<double>{}),
               core::ErrorCode::kInvalidArgument);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_ERROR((void)median(std::vector<double>{}),
               core::ErrorCode::kInvalidArgument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_ERROR((void)percentile(xs, -1.0), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)percentile(xs, 101.0), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)percentile(std::vector<double>{}, 50.0),
               core::ErrorCode::kInvalidArgument);
}

TEST(Stats, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 75.0), 7.0);
}

}  // namespace
}  // namespace soteria::math
