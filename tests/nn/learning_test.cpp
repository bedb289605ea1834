// End-to-end learning sanity checks for the NN substrate: the exact
// architectures the system uses must be able to fit the kinds of
// signals the system feeds them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace soteria::nn {
namespace {

TEST(Learning, AutoencoderMemorizesSmallDataset) {
  math::Rng rng(1);
  AutoencoderConfig config;
  config.input_dim = 32;
  config.hidden_dims = {48, 64, 48};
  auto model = build_autoencoder(config, rng);

  math::Matrix data(16, 32);
  data.fill_uniform(rng, 0.0F, 0.3F);
  Adam optimizer(3e-3);
  const auto report = train_regression(model, data, data, optimizer,
                                       make_train_config(150, 8), rng);
  EXPECT_LT(report.final_loss(), report.epoch_losses.front() * 0.2);
  const auto rmse = row_rmse(model.infer(data), data);
  for (double v : rmse) EXPECT_LT(v, 0.08);
}

TEST(Learning, AutoencoderReconstructsClusterBetterThanOutliers) {
  math::Rng rng(2);
  AutoencoderConfig config;
  config.input_dim = 24;
  config.hidden_dims = {12, 8, 12};  // bottleneck
  auto model = build_autoencoder(config, rng);

  // Clean cluster: first half of dims active.
  math::Matrix train(64, 24, 0.0F);
  for (std::size_t r = 0; r < train.rows(); ++r) {
    for (std::size_t c = 0; c < 12; ++c) {
      train(r, c) = 0.5F + static_cast<float>(rng.normal(0.0, 0.03));
    }
  }
  Adam optimizer(3e-3);
  (void)train_regression(model, train, train, optimizer,
                         make_train_config(120, 16), rng);

  math::Matrix clean(8, 24, 0.0F);
  math::Matrix outlier(8, 24, 0.0F);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 12; ++c) {
      clean(r, c) = 0.5F + static_cast<float>(rng.normal(0.0, 0.03));
      outlier(r, 12 + c) = 0.5F;  // mass in the never-seen half
    }
  }
  const auto clean_rmse = row_rmse(model.infer(clean), clean);
  const auto outlier_rmse = row_rmse(model.infer(outlier), outlier);
  double clean_mean = 0.0;
  double outlier_mean = 0.0;
  for (double v : clean_rmse) clean_mean += v;
  for (double v : outlier_rmse) outlier_mean += v;
  EXPECT_GT(outlier_mean, 2.0 * clean_mean);
}

TEST(Learning, CnnLearnsSpatialPatterns) {
  math::Rng rng(3);
  CnnConfig config;
  config.input_length = 64;
  config.classes = 2;
  config.filters = 8;
  config.dense_units = 16;
  auto model = build_cnn(config, rng);

  // Class 0: bump near the start; class 1: bump near the end.
  constexpr std::size_t kPerClass = 32;
  math::Matrix inputs(2 * kPerClass, 64, 0.0F);
  std::vector<std::size_t> labels(2 * kPerClass);
  for (std::size_t i = 0; i < kPerClass; ++i) {
    const auto lo = 4 + rng.index(8);
    const auto hi = 44 + rng.index(8);
    for (int k = 0; k < 6; ++k) {
      inputs(i, lo + k) = 1.0F;
      inputs(kPerClass + i, hi + k) = 1.0F;
    }
    labels[i] = 0;
    labels[kPerClass + i] = 1;
  }
  Adam optimizer(3e-3);
  (void)train_classifier(model, inputs, labels, optimizer,
                         make_train_config(40, 16), rng);
  const auto predictions = argmax_rows(model.infer(inputs));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    correct += predictions[i] == labels[i];
  }
  EXPECT_GT(correct, labels.size() * 9 / 10);
}

TEST(Learning, SequentialGradientsFlowThroughWholeCnn) {
  // Composite finite-difference check over a miniature CNN stack: the
  // loss gradient w.r.t. the *first* layer's weights (the conv
  // filters) must match numerics through conv, pool, and dense layers
  // chained together.
  math::Rng rng(4);
  CnnConfig config;
  config.input_length = 20;
  config.classes = 3;
  config.filters = 2;
  config.dense_units = 6;
  config.conv_dropout = 0.0;   // determinism for finite differences
  config.dense_dropout = 0.0;
  auto model = build_cnn(config, rng);

  math::Matrix input(1, 20);
  input.fill_normal(rng, 0.0F, 0.5F);
  const std::vector<std::size_t> label{1};

  TrainingWorkspace workspace(model, 20, 1);
  std::vector<float> loss_grad(config.classes);
  const auto loss_at = [&](const math::Matrix& x) {
    std::copy(x.data().begin(), x.data().end(), workspace.input());
    return softmax_cross_entropy_into(workspace.forward(1), config.classes,
                                      label, loss_grad.data());
  };
  model.zero_gradients();
  (void)loss_at(input);
  workspace.backward(loss_grad.data());
  const auto filters = model.parameters().front();
  const std::vector<float> analytic(filters.grad->data().begin(),
                                    filters.grad->data().end());

  const float eps = 1e-2F;
  const std::span<float> weights = filters.value->data();
  for (std::size_t w = 0; w < weights.size(); ++w) {
    const float saved = weights[w];
    weights[w] = saved + eps;
    const double plus = loss_at(input);
    weights[w] = saved - eps;
    const double minus = loss_at(input);
    weights[w] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    EXPECT_NEAR(analytic[w], numeric,
                0.05 * std::max(0.05, std::abs(numeric)))
        << "filter weight " << w;
  }
}

}  // namespace
}  // namespace soteria::nn
