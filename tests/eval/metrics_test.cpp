#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "expect_error.h"

namespace soteria::eval {
namespace {

TEST(ConfusionMatrix, RecordsAndCounts) {
  ConfusionMatrix cm(3);
  cm.record(0, 0);
  cm.record(0, 1);
  cm.record(1, 1);
  cm.record(2, 2);
  EXPECT_EQ(cm.total(), 4U);
  EXPECT_EQ(cm.count(0, 1), 1U);
  EXPECT_EQ(cm.count(0, 2), 0U);
  EXPECT_EQ(cm.class_total(0), 2U);
}

TEST(ConfusionMatrix, Accuracies) {
  ConfusionMatrix cm(2);
  cm.record(0, 0);
  cm.record(0, 0);
  cm.record(0, 1);
  cm.record(1, 1);
  EXPECT_NEAR(cm.class_accuracy(0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cm.class_accuracy(1), 1.0);
  EXPECT_DOUBLE_EQ(cm.overall_accuracy(), 0.75);
}

TEST(ConfusionMatrix, EmptyClassesAreZero) {
  ConfusionMatrix cm(2);
  EXPECT_DOUBLE_EQ(cm.overall_accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.class_accuracy(0), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(0), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(0), 0.0);
}

TEST(ConfusionMatrix, PrecisionRecallF1) {
  ConfusionMatrix cm(2);
  // class 0: TP=3, FN=1; predictions of 0: 3 correct + 2 wrong.
  cm.record(0, 0);
  cm.record(0, 0);
  cm.record(0, 0);
  cm.record(0, 1);
  cm.record(1, 0);
  cm.record(1, 0);
  EXPECT_DOUBLE_EQ(cm.precision(0), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(cm.recall(0), 3.0 / 4.0);
  const double p = 0.6;
  const double r = 0.75;
  EXPECT_NEAR(cm.f1(0), 2 * p * r / (p + r), 1e-12);
}

TEST(ConfusionMatrix, Validation) {
  EXPECT_ERROR(ConfusionMatrix(0), core::ErrorCode::kInvalidArgument);
  ConfusionMatrix cm(2);
  EXPECT_ERROR(cm.record(2, 0), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR(cm.record(0, 2), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)cm.count(5, 0), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)cm.class_total(5), core::ErrorCode::kOutOfRange);
  EXPECT_ERROR((void)cm.precision(5), core::ErrorCode::kOutOfRange);
}

TEST(DetectionStats, Rates) {
  DetectionStats stats;
  stats.true_positives = 90;
  stats.false_negatives = 10;
  stats.true_negatives = 95;
  stats.false_positives = 5;
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 0.9);
  EXPECT_DOUBLE_EQ(stats.false_positive_rate(), 0.05);
  EXPECT_DOUBLE_EQ(stats.accuracy(), 185.0 / 200.0);
  EXPECT_EQ(stats.total(), 200U);
}

TEST(DetectionStats, EmptyIsZero) {
  const DetectionStats stats;
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.false_positive_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.accuracy(), 0.0);
}

}  // namespace
}  // namespace soteria::eval
