#include "math/stats.h"

#include <gtest/gtest.h>

#include <vector>

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
  EXPECT_THROW((void)min(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW((void)max(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW((void)median(std::vector<double>{}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_THROW((void)percentile(xs, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50.0),
               std::invalid_argument);
}

TEST(Stats, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 75.0), 7.0);
}

}  // namespace
}  // namespace soteria::math
