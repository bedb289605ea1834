#include "nn/trainer.h"

#include <gtest/gtest.h>

#include "expect_error.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace soteria::nn {
namespace {

TEST(TrainConfig, Validation) {
  EXPECT_NO_THROW(validate(TrainConfig{}));
  TrainConfig zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_ERROR(validate(zero_epochs), core::ErrorCode::kInvalidArgument);
  TrainConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_ERROR(validate(zero_batch), core::ErrorCode::kInvalidArgument);
}

TEST(TrainConfig, FactorySetsFields) {
  const auto config = make_train_config(7, 13);
  EXPECT_EQ(config.epochs, 7U);
  EXPECT_EQ(config.batch_size, 13U);
}

TEST(TrainRegression, LossDecreasesOnLinearTask) {
  math::Rng rng(1);
  // y = 2 x0 - x1 + 0.5: learnable by a single dense layer.
  math::Matrix inputs(64, 2);
  inputs.fill_normal(rng, 0.0F, 1.0F);
  math::Matrix targets(64, 1);
  for (std::size_t r = 0; r < 64; ++r) {
    targets(r, 0) = 2.0F * inputs(r, 0) - inputs(r, 1) + 0.5F;
  }
  Sequential model;
  model.emplace<Dense>(2, 1, rng);
  Adam optimizer(0.05);
  const auto report = train_regression(model, inputs, targets, optimizer,
                                       make_train_config(60, 16), rng);
  ASSERT_EQ(report.epoch_losses.size(), 60U);
  EXPECT_LT(report.final_loss(), 0.01);
  EXPECT_LT(report.final_loss(), report.epoch_losses.front());
}

TEST(TrainRegression, RowCountMismatchThrows) {
  math::Rng rng(2);
  Sequential model;
  model.emplace<Dense>(2, 1, rng);
  Adam optimizer(0.01);
  EXPECT_ERROR((void)train_regression(model, math::Matrix(4, 2),
                                      math::Matrix(3, 1), optimizer,
                                      TrainConfig{}, rng),
               core::ErrorCode::kInvalidArgument);
}

TEST(TrainRegression, EmptyDatasetThrows) {
  math::Rng rng(3);
  Sequential model;
  model.emplace<Dense>(2, 1, rng);
  Adam optimizer(0.01);
  EXPECT_ERROR((void)train_regression(model, math::Matrix(0, 2),
                                      math::Matrix(0, 1), optimizer,
                                      TrainConfig{}, rng),
               core::ErrorCode::kInvalidArgument);
}

TEST(TrainClassifier, LearnsSeparableBlobs) {
  math::Rng rng(4);
  constexpr std::size_t kPerClass = 40;
  math::Matrix inputs(2 * kPerClass, 2);
  std::vector<std::size_t> labels(2 * kPerClass);
  for (std::size_t i = 0; i < kPerClass; ++i) {
    inputs(i, 0) = static_cast<float>(rng.normal(-2.0, 0.4));
    inputs(i, 1) = static_cast<float>(rng.normal(-2.0, 0.4));
    labels[i] = 0;
    inputs(kPerClass + i, 0) = static_cast<float>(rng.normal(2.0, 0.4));
    inputs(kPerClass + i, 1) = static_cast<float>(rng.normal(2.0, 0.4));
    labels[kPerClass + i] = 1;
  }
  Sequential model;
  model.emplace<Dense>(2, 8, rng);
  model.emplace<Relu>();
  model.emplace<Dense>(8, 2, rng);
  Adam optimizer(0.02);
  (void)train_classifier(model, inputs, labels, optimizer,
                         make_train_config(40, 16), rng);
  const auto predictions = argmax_rows(model.infer(inputs));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    correct += predictions[i] == labels[i];
  }
  EXPECT_GT(correct, labels.size() * 95 / 100);
}

TEST(ArgmaxRows, PicksPerRowMaximum) {
  const math::Matrix m(2, 3, {0.1F, 0.7F, 0.2F, 0.9F, 0.05F, 0.05F});
  const auto result = argmax_rows(m);
  EXPECT_EQ(result, (std::vector<std::size_t>{1, 0}));
}

TEST(GatherRows, CopiesSelectedRows) {
  const math::Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> rows{2, 0};
  const auto gathered = gather_rows(m, rows);
  EXPECT_FLOAT_EQ(gathered(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(gathered(1, 1), 2.0F);
  const std::vector<std::size_t> bad{7};
  EXPECT_ERROR((void)gather_rows(m, bad), core::ErrorCode::kOutOfRange);
}

}  // namespace
}  // namespace soteria::nn
