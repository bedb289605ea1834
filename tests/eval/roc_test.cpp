#include "eval/roc.h"

#include <gtest/gtest.h>

#include "expect_error.h"
#include "math/rng.h"

namespace soteria::eval {
namespace {

TEST(Roc, PerfectSeparationHasAucOne) {
  const std::vector<double> positives{5.0, 6.0, 7.0};
  const std::vector<double> negatives{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 1.0);
}

TEST(Roc, ReversedSeparationHasAucZero) {
  const std::vector<double> positives{1.0, 2.0};
  const std::vector<double> negatives{5.0, 6.0};
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 0.0);
}

TEST(Roc, IdenticalScoresGiveHalf) {
  const std::vector<double> same{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(auc(same, same), 0.5);
}

TEST(Roc, RandomScoresNearHalf) {
  math::Rng rng(1);
  std::vector<double> a(2000);
  std::vector<double> b(2000);
  for (double& v : a) v = rng.uniform();
  for (double& v : b) v = rng.uniform();
  EXPECT_NEAR(auc(a, b), 0.5, 0.03);
}

TEST(Roc, AucMatchesBruteForce) {
  math::Rng rng(2);
  std::vector<double> positives(40);
  std::vector<double> negatives(30);
  for (double& v : positives) v = rng.normal(1.0, 1.0);
  for (double& v : negatives) v = rng.normal(0.0, 1.0);
  double wins = 0.0;
  for (double p : positives) {
    for (double n : negatives) {
      if (p > n) {
        wins += 1.0;
      } else if (p == n) {
        wins += 0.5;
      }
    }
  }
  const double brute = wins / (40.0 * 30.0);
  EXPECT_NEAR(auc(positives, negatives), brute, 1e-12);
}

TEST(Roc, EmptyInputsThrow) {
  const std::vector<double> some{1.0};
  EXPECT_ERROR((void)auc({}, some), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)auc(some, {}), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)roc_curve(some, some, 0),
               core::ErrorCode::kInvalidArgument);
}

TEST(Roc, CurveIsMonotoneInThreshold) {
  math::Rng rng(3);
  std::vector<double> positives(50);
  std::vector<double> negatives(50);
  for (double& v : positives) v = rng.normal(2.0, 1.0);
  for (double& v : negatives) v = rng.normal(0.0, 1.0);
  const auto curve = roc_curve(positives, negatives, 25);
  ASSERT_EQ(curve.size(), 26U);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].threshold, curve[i - 1].threshold);
    EXPECT_LE(curve[i].true_positive_rate,
              curve[i - 1].true_positive_rate);
    EXPECT_LE(curve[i].false_positive_rate,
              curve[i - 1].false_positive_rate);
  }
  // Ends of the sweep: everything above the min, nothing above the max.
  EXPECT_GT(curve.front().true_positive_rate, 0.9);
  EXPECT_DOUBLE_EQ(curve.back().true_positive_rate, 0.0);
}

TEST(Roc, YoudenThresholdSeparatesWellSeparatedSets) {
  const std::vector<double> positives{8.0, 9.0, 10.0};
  const std::vector<double> negatives{1.0, 2.0, 3.0};
  const double threshold = best_youden_threshold(positives, negatives);
  EXPECT_GT(threshold, 3.0);
  EXPECT_LT(threshold, 8.0);
}

}  // namespace
}  // namespace soteria::eval
