#include "nn/sequential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "expect_error.h"
#include "nn/activations.h"
#include "nn/autoencoder.h"
#include "nn/cnn.h"
#include "nn/dense.h"

namespace soteria::nn {
namespace {

Sequential two_layer(std::uint64_t seed) {
  math::Rng rng(seed);
  Sequential model;
  model.emplace<Dense>(4, 8, rng);
  model.emplace<Relu>();
  model.emplace<Dense>(8, 2, rng);
  return model;
}

TEST(Sequential, ForwardChainsLayers) {
  auto model = two_layer(1);
  math::Rng rng(2);
  math::Matrix input(3, 4);
  input.fill_normal(rng, 0.0F, 1.0F);
  const auto out = model.infer(input);
  EXPECT_EQ(out.rows(), 3U);
  EXPECT_EQ(out.cols(), 2U);
}

TEST(Sequential, EmptyModelThrows) {
  Sequential model;
  EXPECT_ERROR((void)model.infer(math::Matrix(1, 1)),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(TrainingWorkspace(model, 1, 1),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(model.add(nullptr), core::ErrorCode::kInvalidArgument);
}

TEST(Sequential, OutputDimensionValidatesChain) {
  const auto model = two_layer(3);
  EXPECT_EQ(model.output_dimension(4), 2U);
  EXPECT_ERROR((void)model.output_dimension(5),
               core::ErrorCode::kInvalidArgument);
}

TEST(Sequential, ParametersInStableOrder) {
  auto model = two_layer(4);
  const auto params = model.parameters();
  ASSERT_EQ(params.size(), 4U);  // two dense layers x (W, b)
  EXPECT_EQ(params[0].value->rows(), 4U);
  EXPECT_EQ(params[2].value->rows(), 8U);
  EXPECT_EQ(model.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2U);
  EXPECT_EQ(model.layer_count(), 3U);
}

TEST(Sequential, SummaryListsLayers) {
  const auto model = two_layer(5);
  const auto text = model.summary();
  EXPECT_NE(text.find("Dense(4->8)"), std::string::npos);
  EXPECT_NE(text.find("ReLU"), std::string::npos);
  EXPECT_NE(text.find("total parameters"), std::string::npos);
}

TEST(Sequential, SaveLoadRoundTripsPredictions) {
  auto model = two_layer(6);
  math::Rng rng(7);
  math::Matrix input(2, 4);
  input.fill_normal(rng, 0.0F, 1.0F);
  const auto before = model.infer(input);

  std::stringstream stream;
  model.save_parameters(stream);
  auto fresh = two_layer(999);  // different init
  fresh.load_parameters(stream);
  EXPECT_EQ(fresh.infer(input), before);
}

TEST(Sequential, LoadRejectsWrongArchitecture) {
  auto model = two_layer(8);
  std::stringstream stream;
  model.save_parameters(stream);

  math::Rng rng(9);
  Sequential other;
  other.emplace<Dense>(4, 4, rng);
  EXPECT_ERROR(other.load_parameters(stream), core::ErrorCode::kCorruptModel);
}

TEST(Sequential, LoadRejectsGarbage) {
  std::stringstream stream;
  stream.write("garbage!", 8);
  auto model = two_layer(10);
  EXPECT_ERROR(model.load_parameters(stream), core::ErrorCode::kCorruptModel);
}

// Copies `input` into the workspace and returns the training output.
math::Matrix workspace_forward(TrainingWorkspace& workspace,
                               const math::Matrix& input) {
  std::copy(input.data().begin(), input.data().end(), workspace.input());
  const float* out = workspace.forward(input.rows());
  const std::size_t count = input.rows() * workspace.output_width();
  return math::Matrix(input.rows(), workspace.output_width(),
                      std::vector<float>(out, out + count));
}

/// The input gradient of one training step run layer by layer, each
/// layer's output and gradient in a buffer of its own: the reference
/// for the workspace's in-place choices.
std::vector<float> chained_input_gradient(Sequential& model,
                                          const math::Matrix& input,
                                          const std::vector<float>& grad_out) {
  const auto& layers = model.layers();
  const std::size_t rows = input.rows();
  std::vector<std::size_t> widths{input.cols()};
  std::vector<std::vector<float>> outputs;
  std::vector<TrainState> states(layers.size());
  const float* x = input.data().data();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    widths.push_back(layers[i]->output_dimension(widths[i]));
    layers[i]->reserve_training(rows, widths[i], states[i]);
    outputs.emplace_back(rows * widths[i + 1]);
    layers[i]->train_forward(x, rows, widths[i], outputs[i].data(),
                             states[i]);
    x = outputs[i].data();
  }
  std::vector<float> grad = grad_out;
  for (std::size_t i = layers.size(); i-- > 0;) {
    std::vector<float> grad_in(rows * widths[i]);
    const float* in = i == 0 ? input.data().data() : outputs[i - 1].data();
    layers[i]->train_backward(in, outputs[i].data(), grad.data(), rows,
                              widths[i], grad_in.data(), states[i]);
    grad = std::move(grad_in);
  }
  return grad;
}

TEST(TrainingWorkspace, InputGradientMatchesNumericAcrossInPlaceRules) {
  // A leading ReLU trains in place over the input batch, the ReLU after
  // Dense in place over Dense's output, and the second of two ReLUs in
  // place over the first one's output (relu(relu(x)) is relu(x), so
  // the first one's backward reads the same bits). The input gradient
  // must equal the layer-by-layer chain's bit for bit and match finite
  // differences of sum(out^2) / 2.
  math::Rng rng(21);
  Sequential model;
  model.emplace<Relu>();
  model.emplace<Dense>(4, 6, rng);
  model.emplace<Relu>();
  model.emplace<Relu>();
  model.emplace<Dense>(6, 5, rng);
  model.emplace<Relu>();
  model.emplace<Dense>(5, 2, rng);
  TrainingWorkspace workspace(model, 4, 3);
  math::Matrix input(3, 4);
  input.fill_normal(rng, 0.0F, 1.0F);

  const math::Matrix out = workspace_forward(workspace, input);
  const float* grad = workspace.backward(out.data().data());
  const std::vector<float> analytic(grad, grad + input.size());
  const std::vector<float> chained = chained_input_gradient(
      model, input, std::vector<float>(out.data().begin(), out.data().end()));
  ASSERT_EQ(chained.size(), analytic.size());
  EXPECT_EQ(std::memcmp(chained.data(), analytic.data(),
                        analytic.size() * sizeof(float)),
            0);
  const auto loss = [&] {
    const math::Matrix y = workspace_forward(workspace, input);
    double acc = 0.0;
    for (const float x : y.data()) acc += 0.5 * static_cast<double>(x) * x;
    return acc;
  };
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float saved = input.data()[i];
    if (std::abs(saved) < 2.0F * eps) continue;  // the leading ReLU's kink
    input.data()[i] = saved + eps;
    const double plus = loss();
    input.data()[i] = saved - eps;
    const double minus = loss();
    input.data()[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 2e-2 * std::max(1.0, std::abs(numeric)))
        << "input element " << i;
  }
}

TEST(TrainingWorkspace, ShortBatchUsesAPrefixAndMatchesInfer) {
  // Without dropout the training forward is the inference chain, bit
  // for bit, whatever prefix of the workspace a batch uses.
  auto model = two_layer(22);
  TrainingWorkspace workspace(model, 4, 8);
  math::Rng rng(23);
  for (const std::size_t rows : {8U, 3U, 1U, 8U}) {
    math::Matrix input(rows, 4);
    input.fill_normal(rng, 0.0F, 1.0F);
    EXPECT_EQ(workspace_forward(workspace, input), model.infer(input));
  }
}

TEST(TrainingWorkspace, RejectsBadShapes) {
  auto model = two_layer(24);
  EXPECT_ERROR(TrainingWorkspace(model, 5, 4),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR(TrainingWorkspace(model, 4, 0),
               core::ErrorCode::kInvalidArgument);
  TrainingWorkspace workspace(model, 4, 4);
  EXPECT_EQ(workspace.input_width(), 4U);
  EXPECT_EQ(workspace.output_width(), 2U);
  const std::vector<float> grad(8, 1.0F);
  EXPECT_ERROR((void)workspace.backward(grad.data()),
               core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)workspace.forward(0), core::ErrorCode::kInvalidArgument);
  EXPECT_ERROR((void)workspace.forward(5), core::ErrorCode::kInvalidArgument);
}

TEST(Autoencoder, BuildsPaperShape) {
  math::Rng rng(11);
  AutoencoderConfig config;
  config.input_dim = 100;
  config.hidden_dims = {200, 300, 200};
  auto model = build_autoencoder(config, rng);
  EXPECT_EQ(model.output_dimension(100), 100U);
  // dense+relu per hidden layer, plus the output dense
  EXPECT_EQ(model.layer_count(), 3 * 2 + 1U);
}

TEST(Autoencoder, WidthScaleShrinksHiddenLayers) {
  math::Rng rng(12);
  AutoencoderConfig config;
  config.input_dim = 50;
  config.hidden_dims = {100};
  config.width_scale = 0.5;
  auto model = build_autoencoder(config, rng);
  // 50 -> 50 -> 50: parameters = 50*50+50 + 50*50+50.
  EXPECT_EQ(model.parameter_count(), 2U * (50 * 50 + 50));
}

TEST(Autoencoder, ConfigValidation) {
  AutoencoderConfig bad;
  bad.input_dim = 0;
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
  bad = AutoencoderConfig{};
  bad.hidden_dims.clear();
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
  bad = AutoencoderConfig{};
  bad.width_scale = 0.0;
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
  bad = AutoencoderConfig{};
  bad.hidden_dims = {0};
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
}

TEST(Cnn, BuildsAndValidates) {
  math::Rng rng(13);
  CnnConfig config;
  config.input_length = 100;
  config.filters = 4;
  config.dense_units = 16;
  auto model = build_cnn(config, rng);
  EXPECT_EQ(model.output_dimension(100), config.classes);
}

TEST(Cnn, PaperArchitectureShape) {
  math::Rng rng(14);
  CnnConfig config;  // 500-wide input, 46 filters, dense 512
  auto model = build_cnn(config, rng);
  EXPECT_EQ(model.output_dimension(500), 4U);
  // ConvB1: 500->498->496->248, ConvB2: 248->246->244->122.
  // Flatten = 46*122 = 5612 -> 512 -> 4.
  const std::size_t expected =
      (46 * 1 * 3 + 46) + (46 * 46 * 3 + 46) +  // ConvB1
      (46 * 46 * 3 + 46) + (46 * 46 * 3 + 46) +  // ConvB2
      (5612 * 512 + 512) + (512 * 4 + 4);
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(Cnn, ConfigValidation) {
  CnnConfig bad;
  bad.input_length = 0;
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
  bad = CnnConfig{};
  bad.input_length = 8;  // too short for two conv blocks + pooling
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
  bad = CnnConfig{};
  bad.conv_dropout = 1.0;
  EXPECT_ERROR(validate(bad), core::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace soteria::nn
