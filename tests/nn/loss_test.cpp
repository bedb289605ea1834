#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "expect_error.h"

namespace soteria::nn {
namespace {

TEST(MseLoss, ValueAndGradient) {
  const float pred[] = {3.0F, 5.0F};
  const float target[] = {1.0F, 5.0F};
  float gradient[2];
  const double loss = mse_loss_into(pred, target, 2, gradient);
  EXPECT_DOUBLE_EQ(loss, (4.0 + 0.0) / 2.0);
  EXPECT_FLOAT_EQ(gradient[0], 2.0F * 2.0F / 2.0F);
  EXPECT_FLOAT_EQ(gradient[1], 0.0F);
}

TEST(MseLoss, ZeroForPerfectPrediction) {
  const std::vector<float> m(6, 1.5F);
  std::vector<float> gradient(6, -1.0F);
  EXPECT_DOUBLE_EQ(mse_loss_into(m.data(), m.data(), 6, gradient.data()),
                   0.0);
  for (const float g : gradient) EXPECT_EQ(g, 0.0F);
}

TEST(Softmax, RowsSumToOne) {
  const math::Matrix logits(2, 3, {1.0F, 2.0F, 3.0F, -1.0F, 0.0F, 1.0F});
  const auto probs = softmax(logits);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(probs(r, c), 0.0F);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Softmax, IsShiftInvariantAndStable) {
  const math::Matrix a(1, 2, {1.0F, 2.0F});
  const math::Matrix b(1, 2, {1001.0F, 1002.0F});
  const auto pa = softmax(a);
  const auto pb = softmax(b);
  EXPECT_NEAR(pa(0, 0), pb(0, 0), 1e-6);
  EXPECT_FALSE(std::isnan(pb(0, 1)));
}

TEST(SoftmaxCrossEntropy, KnownValue) {
  // Uniform logits over 4 classes -> loss = ln(4).
  const float logits[4] = {};
  const std::vector<std::size_t> labels{2};
  float gradient[4];
  const double loss = softmax_cross_entropy_into(logits, 4, labels, gradient);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
  // Gradient: probs - onehot, / batch.
  EXPECT_NEAR(gradient[0], 0.25F, 1e-6);
  EXPECT_NEAR(gradient[2], 0.25F - 1.0F, 1e-6);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  const float logits[] = {1.0F, -2.0F, 0.5F, 3.0F, 3.0F, 0.0F};
  const std::vector<std::size_t> labels{0, 1};
  float gradient[6];
  (void)softmax_cross_entropy_into(logits, 3, labels, gradient);
  for (std::size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) sum += gradient[r * 3 + c];
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectPredictionHasLowLoss) {
  const float logits[] = {10.0F, -10.0F};
  const std::vector<std::size_t> labels{0};
  float gradient[2];
  EXPECT_LT(softmax_cross_entropy_into(logits, 2, labels, gradient), 1e-6);
}

TEST(SoftmaxCrossEntropy, Validation) {
  const float logits[6] = {};
  float gradient[6];
  const std::vector<std::size_t> bad_label{0, 3};
  EXPECT_ERROR(
      (void)softmax_cross_entropy_into(logits, 3, bad_label, gradient),
               core::ErrorCode::kInvalidArgument);
}

TEST(RowRmse, PerRowValues) {
  const math::Matrix pred(2, 2, {1.0F, 1.0F, 0.0F, 0.0F});
  const math::Matrix target(2, 2, {0.0F, 0.0F, 0.0F, 0.0F});
  const auto rmse = row_rmse(pred, target);
  ASSERT_EQ(rmse.size(), 2U);
  EXPECT_NEAR(rmse[0], 1.0, 1e-9);
  EXPECT_NEAR(rmse[1], 0.0, 1e-9);
}

TEST(RowRmse, ShapeMismatchThrows) {
  EXPECT_ERROR((void)row_rmse(math::Matrix(1, 2), math::Matrix(1, 3)),
               core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::nn
